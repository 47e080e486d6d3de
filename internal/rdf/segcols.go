package rdf

// The graph's columnar image: the one form a Graph reads. Builder.Columns
// compiles it in memory, persistent segments (internal/segment) store it
// byte for byte, and FromColumns serves from either — so an instance
// opened from triples and one opened from a segment set run the same read
// code over the same bytes.
//
// Layout invariants (established by Builder.Columns, relied on by Graph):
//
//   - Subject IDs number the subjects with at least one triple in lexical
//     order, so ascending ID is ascending IRI; the key table's sorted
//     permutation (the identity) serves lookups.
//   - The predicate table is sorted by IRI, so ascending predID is
//     lexical order.
//   - The object-term table is sorted by term key, so ascending termID is
//     key order. Terms are stored as canonical keys (Term.Key) and decoded
//     once, on first use, into the graph's term table — never at open,
//     keeping open O(1).
//   - POS: per predicate, values ascend by term key; each value's subject
//     posting is sorted dense IDs.
//   - SPO: per subject, predicate IDs ascend; each (s,p)'s object term IDs
//     ascend. Dense IDs index rows directly.

import (
	"fmt"

	"magnet/internal/ids"
)

// GraphColumns is the flat columnar image of a graph. All slices may alias
// a mapped segment file; the graph never mutates them.
type GraphColumns struct {
	// Subj is the subject key table (dense-ID order, which is lexical)
	// with its sorted permutation.
	Subj ids.Columns
	// Pred table: predicate IRIs sorted lexically; PredOff has P+1 entries.
	PredOff  []uint32
	PredBlob []byte
	// Term table: object-term canonical keys sorted; TermOff has T+1 entries.
	TermOff  []uint32
	TermBlob []byte
	// POS index. PosValStart (P+1) delimits each predicate's value run in
	// PosValTerm (term IDs). PosPostStart (V+1, V = len(PosValTerm))
	// delimits each value's subject posting in PosPost.
	PosValStart  []uint32
	PosValTerm   []uint32
	PosPostStart []uint32
	PosPost      []uint32
	// SPO index. SpoPredStart (S+1) delimits each subject's predicate run
	// in SpoPred (pred IDs). SpoObjStart (len(SpoPred)+1) delimits each
	// (s,p)'s object run in SpoObj (term IDs).
	SpoPredStart []uint32
	SpoPred      []uint32
	SpoObjStart  []uint32
	SpoObj       []uint32
	// Triples is the total triple count (Graph.Len).
	Triples uint64
}

// FromColumns returns the frozen graph over a columnar image (compiled by
// a Builder, or slices into a mapped segment). Construction is O(1) in the
// corpus size: only the column frames are validated; strings and terms are
// read lazily, and corrupt offsets surface as absent data, never panics.
func FromColumns(c GraphColumns) (*Graph, error) {
	subj, err := ids.FromColumns[IRI](c.Subj)
	if err != nil {
		return nil, fmt.Errorf("rdf: subject table: %w", err)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return &Graph{
		c:     c,
		subj:  subj,
		preds: ids.NewStrings(c.PredOff, c.PredBlob),
		keys:  ids.NewStrings(c.TermOff, c.TermBlob),
	}, nil
}

func (c *GraphColumns) validate() error {
	if len(c.PredOff) == 0 || len(c.TermOff) == 0 {
		return fmt.Errorf("rdf: columns missing predicate or term table")
	}
	p := len(c.PredOff) - 1
	if len(c.PosValStart) != p+1 {
		return fmt.Errorf("rdf: pos value starts (%d) disagree with predicate count (%d)", len(c.PosValStart), p)
	}
	if len(c.PosPostStart) != len(c.PosValTerm)+1 {
		return fmt.Errorf("rdf: pos posting starts (%d) disagree with value count (%d)", len(c.PosPostStart), len(c.PosValTerm))
	}
	n := len(c.Subj.Off) - 1
	if len(c.SpoPredStart) != n+1 {
		return fmt.Errorf("rdf: spo rows (%d) disagree with subject count (%d)", len(c.SpoPredStart), n)
	}
	if len(c.SpoObjStart) != len(c.SpoPred)+1 {
		return fmt.Errorf("rdf: spo object starts (%d) disagree with pair count (%d)", len(c.SpoObjStart), len(c.SpoPred))
	}
	return nil
}
