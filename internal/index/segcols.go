package index

// The columnar images of the text index and the vector store: the one form
// their readers serve from. The builders (build.go) compile them in memory,
// persistent segments (internal/segment) store them byte for byte, and
// FromTextColumns/FromVectorColumns open either — the pattern of the graph's
// image (rdf/segcols.go).
//
// Layout invariants:
//
//   - String tables (terms, fields, surfaces) are offset/blob columns;
//     term and field tables are sorted, so ascending ID is lexical order
//     and lookups binary-search with no side map.
//   - All nested structures are offset-delimited runs over flat columns
//     (run i of column C spans C[Start[i]:Start[i+1]]), so opening is O(1)
//     in the corpus: no per-element decode, no slice-of-slices headers.
//   - Documents are numbered by the builder's IDs (Magnet's graph subject
//     IDs), so posting lists serialize byte-for-byte as built and need no
//     doc table.
//   - Corrupt offsets read as empty runs (ids.Run), never panics.

import (
	"fmt"

	"magnet/internal/ids"
	"magnet/internal/par"
	"magnet/internal/text"
)

// TextColumns is the flat columnar image of a TextIndex. Document IDs are
// the builder's (Magnet's graph subject IDs).
type TextColumns struct {
	// Live is the number of indexed documents.
	Live uint32
	// Term and field string tables, sorted.
	TermOff   []uint32
	TermBlob  []byte
	FieldOff  []uint32
	FieldBlob []byte
	// Surf is the precomputed best surface form per term, parallel to the
	// term table (the term itself when no raw token was recorded).
	SurfOff  []uint32
	SurfBlob []byte
	// Postings. PostFieldStart (T+1) delimits each term's field run in
	// PostField (field IDs, ascending). PostStart (len(PostField)+1)
	// delimits each (term, field) posting in PostDNS/PostTFS.
	PostFieldStart []uint32
	PostField      []uint32
	PostStart      []uint32
	PostDNS        []uint32
	PostTFS        []uint32
	// DF (T) is each term's document frequency: the number of documents
	// holding it in any field.
	DF []uint32
	// DocLen (D, D one past the largest document ID) is each document's
	// accepted-token count across its fields; zero for IDs that hold no
	// document.
	DocLen []uint32
}

// FromTextColumns returns the frozen text index over a columnar image,
// using the given analyzer (text.DefaultAnalyzer when nil) — it must match
// the analyzer the index was built with for query terms to line up.
// Construction is O(1) in the corpus size.
func FromTextColumns(a *text.Analyzer, c TextColumns) (*TextIndex, error) {
	if a == nil {
		a = text.DefaultAnalyzer
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return &TextIndex{
		analyzer: a,
		c:        c,
		terms:    ids.NewStrings(c.TermOff, c.TermBlob),
		fields:   ids.NewStrings(c.FieldOff, c.FieldBlob),
		surfs:    ids.NewStrings(c.SurfOff, c.SurfBlob),
	}, nil
}

func (c *TextColumns) validate() error {
	if len(c.TermOff) == 0 || len(c.FieldOff) == 0 {
		return fmt.Errorf("index: text columns missing term or field table")
	}
	t := len(c.TermOff) - 1
	if len(c.SurfOff) != len(c.TermOff) {
		return fmt.Errorf("index: surface table (%d) disagrees with term table (%d)", len(c.SurfOff)-1, t)
	}
	if len(c.PostFieldStart) != t+1 || len(c.DF) != t {
		return fmt.Errorf("index: posting starts/document frequencies disagree with term count %d", t)
	}
	if len(c.PostStart) != len(c.PostField)+1 {
		return fmt.Errorf("index: posting starts (%d) disagree with (term, field) pair count (%d)", len(c.PostStart), len(c.PostField))
	}
	if len(c.PostDNS) != len(c.PostTFS) {
		return fmt.Errorf("index: posting ID and tf columns disagree (%d vs %d)", len(c.PostDNS), len(c.PostTFS))
	}
	return nil
}

// VectorColumns is the flat columnar image of a VectorStore. Document IDs
// are the builder's (Magnet's graph subject IDs); term numbering preserves
// the interner's dense IDs.
type VectorColumns struct {
	Terms ids.Columns
	// Rows: RowStart (D+1, D one past the largest document ID) delimits
	// each document's normalized tf·idf row in RowTerm (termnums
	// ascending) and RowWeight (parallel weights). IDs that hold no
	// document have empty rows.
	RowStart  []uint32
	RowTerm   []uint32
	RowWeight []float64
}

// FromVectorColumns returns the frozen vector store over a columnar image,
// its similarity and centroid scans fanning out on pool (nil scans
// serially). Construction is O(1) in the corpus size: rows are read
// straight from the columns.
func FromVectorColumns(c VectorColumns, pool *par.Pool) (*VectorStore, error) {
	terms, err := ids.FromColumns[string](c.Terms)
	if err != nil {
		return nil, fmt.Errorf("index: vector term table: %w", err)
	}
	if len(c.RowStart) == 0 {
		return nil, fmt.Errorf("index: vector columns missing row starts")
	}
	if len(c.RowTerm) != len(c.RowWeight) {
		return nil, fmt.Errorf("index: vector term and weight columns disagree (%d vs %d)", len(c.RowTerm), len(c.RowWeight))
	}
	return &VectorStore{terms: terms, c: c, pool: pool}, nil
}
