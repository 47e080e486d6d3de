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
//   - Document numbering preserves the builder's dense IDs verbatim, so
//     posting lists serialize byte-for-byte as built.
//   - Corrupt offsets read as empty runs (ids.Run), never panics.

import (
	"fmt"

	"magnet/internal/ids"
	"magnet/internal/text"
)

// TextColumns is the flat columnar image of a TextIndex.
type TextColumns struct {
	// Docs is the document interner table (dense docnum order).
	Docs ids.Columns
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
	// Document frequency. DFStart (T+1) delimits each term's sorted docnum
	// run in DFDNS.
	DFStart []uint32
	DFDNS   []uint32
	// Per-document columns. DocFieldStart (D+1, D = interner range)
	// delimits each document's field run in DocField; DocTermStart
	// (len(DocField)+1) delimits each (doc, field)'s term run in
	// DocTerm/DocTF (term IDs ascending by lexical order).
	DocFieldStart []uint32
	DocField      []uint32
	DocTermStart  []uint32
	DocTerm       []uint32
	DocTF         []uint32
}

// FromTextColumns returns the frozen text index over a columnar image,
// using the given analyzer (text.DefaultAnalyzer when nil) — it must match
// the analyzer the index was built with for query terms to line up.
// Construction is O(1) in the corpus size.
func FromTextColumns(a *text.Analyzer, c TextColumns) (*TextIndex, error) {
	if a == nil {
		a = text.DefaultAnalyzer
	}
	docs, err := ids.FromColumns[string](c.Docs)
	if err != nil {
		return nil, fmt.Errorf("index: text doc table: %w", err)
	}
	if err := c.validate(docs.Len()); err != nil {
		return nil, err
	}
	return &TextIndex{
		analyzer: a,
		docs:     docs,
		c:        c,
		terms:    ids.NewStrings(c.TermOff, c.TermBlob),
		fields:   ids.NewStrings(c.FieldOff, c.FieldBlob),
		surfs:    ids.NewStrings(c.SurfOff, c.SurfBlob),
	}, nil
}

func (c *TextColumns) validate(nDocs int) error {
	if len(c.TermOff) == 0 || len(c.FieldOff) == 0 {
		return fmt.Errorf("index: text columns missing term or field table")
	}
	t := len(c.TermOff) - 1
	if len(c.SurfOff) != len(c.TermOff) {
		return fmt.Errorf("index: surface table (%d) disagrees with term table (%d)", len(c.SurfOff)-1, t)
	}
	if len(c.PostFieldStart) != t+1 || len(c.DFStart) != t+1 {
		return fmt.Errorf("index: posting/df starts disagree with term count %d", t)
	}
	if len(c.PostStart) != len(c.PostField)+1 {
		return fmt.Errorf("index: posting starts (%d) disagree with (term, field) pair count (%d)", len(c.PostStart), len(c.PostField))
	}
	if len(c.PostDNS) != len(c.PostTFS) {
		return fmt.Errorf("index: posting docnum and tf columns disagree (%d vs %d)", len(c.PostDNS), len(c.PostTFS))
	}
	if len(c.DocFieldStart) != nDocs+1 {
		return fmt.Errorf("index: per-doc rows (%d) disagree with document count (%d)", len(c.DocFieldStart), nDocs)
	}
	if len(c.DocTermStart) != len(c.DocField)+1 {
		return fmt.Errorf("index: per-doc term starts (%d) disagree with (doc, field) pair count (%d)", len(c.DocTermStart), len(c.DocField))
	}
	if len(c.DocTerm) != len(c.DocTF) {
		return fmt.Errorf("index: per-doc term and tf columns disagree (%d vs %d)", len(c.DocTerm), len(c.DocTF))
	}
	return nil
}

// VectorColumns is the flat columnar image of a VectorStore. Document and
// term numbering preserve the interners' dense IDs; documents absent from
// LiveDNS have empty rows.
type VectorColumns struct {
	Docs  ids.Columns
	Terms ids.Columns
	// LiveDNS is the sorted posting of live docnums.
	LiveDNS []uint32
	// Per-document vectors: DocStart (D+1) delimits each document's run in
	// DocTerm (sorted termnums) and DocFreq (raw frequencies).
	DocStart []uint32
	DocTerm  []uint32
	DocFreq  []float64
	// DF is the per-term document frequency (termnum-indexed).
	DF []uint32
	// Pinned is a termnum-indexed bitset of terms carrying the pinned
	// prefix (stored frequency used directly as weight).
	Pinned []byte
	// Retrieval postings: PostStart (T+1) delimits each term's sorted
	// docnum posting in PostDNS (precomputed, so SimilarTo never rebuilds).
	PostStart []uint32
	PostDNS   []uint32
}

// FromVectorColumns returns the frozen vector store over a columnar image.
// Construction is O(1) in the corpus size; the tf·idf row cache starts
// empty and grows lazily off the open path.
func FromVectorColumns(c VectorColumns) (*VectorStore, error) {
	docs, err := ids.FromColumns[string](c.Docs)
	if err != nil {
		return nil, fmt.Errorf("index: vector doc table: %w", err)
	}
	terms, err := ids.FromColumns[string](c.Terms)
	if err != nil {
		return nil, fmt.Errorf("index: vector term table: %w", err)
	}
	if err := c.validate(docs.Len(), terms.Len()); err != nil {
		return nil, err
	}
	return &VectorStore{docs: docs, terms: terms, c: c}, nil
}

func (c *VectorColumns) validate(nDocs, nTerms int) error {
	if len(c.DocStart) != nDocs+1 {
		return fmt.Errorf("index: vector doc rows (%d) disagree with document count (%d)", len(c.DocStart), nDocs)
	}
	if len(c.DocTerm) != len(c.DocFreq) {
		return fmt.Errorf("index: vector term and freq columns disagree (%d vs %d)", len(c.DocTerm), len(c.DocFreq))
	}
	if len(c.DF) != nTerms {
		return fmt.Errorf("index: vector df column (%d) disagrees with term count (%d)", len(c.DF), nTerms)
	}
	if len(c.Pinned) != (nTerms+7)/8 {
		return fmt.Errorf("index: vector pinned bitset (%d bytes) disagrees with term count (%d)", len(c.Pinned), nTerms)
	}
	if len(c.PostStart) != nTerms+1 {
		return fmt.Errorf("index: vector posting starts (%d) disagree with term count (%d)", len(c.PostStart), nTerms)
	}
	return nil
}
