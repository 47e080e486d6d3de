package index

// Columnar backings for the text index and the vector store: the
// serialized, immutable forms persistent segments hold (internal/segment).
// Both stores follow the graph's pattern (rdf/segcols.go): a Columns()
// snapshot on the build side, a FromXxxColumns read-only view on the open
// side, and branch hooks inside the existing accessors so behaviour —
// including output ordering — is identical over either backing.
//
// Layout invariants:
//
//   - String tables (terms, fields, surfaces) are offset/blob columns;
//     term and field tables are sorted, so ascending ID is lexical order
//     and lookups binary-search with no side map.
//   - All nested structures are offset-delimited runs over flat columns
//     (run i of column C spans C[Start[i]:Start[i+1]]), so opening is O(1)
//     in the corpus: no per-element decode, no slice-of-slices headers.
//   - Document numbering preserves the interner's dense IDs verbatim;
//     removed documents leave empty rows. Posting lists therefore
//     serialize byte-for-byte as built.

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"magnet/internal/ids"
	"magnet/internal/itemset"
	"magnet/internal/text"
)

// cutRun bounds run [start[i], start[i+1]) against a backing column length,
// tolerant of corrupt offsets (empty run).
//
//magnet:hot
func cutRun(start []uint32, i, backing int) (int, int) {
	if i < 0 || i+1 >= len(start) {
		return 0, 0
	}
	lo, hi := int(start[i]), int(start[i+1])
	if lo > hi || hi > backing {
		return 0, 0
	}
	return lo, hi
}

// tableEntry returns entry i of an offset/blob string table.
//
//magnet:hot
func tableEntry(off []uint32, blob []byte, i int) []byte {
	lo, hi := cutRun(off, i, len(blob))
	return blob[lo:hi]
}

// findEntry binary-searches a sorted offset/blob table for key.
//
//magnet:hot
func findEntry(off []uint32, blob []byte, key string) (int, bool) {
	n := len(off) - 1
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmpEntry(tableEntry(off, blob, mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n && cmpEntry(tableEntry(off, blob, lo), key) == 0 {
		return lo, true
	}
	return 0, false
}

// cmpEntry compares table bytes against a string key without allocating.
//
//magnet:hot
func cmpEntry(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

// sortedKeys returns the sorted keys of a string set.
func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// appendTable appends key to an offset/blob table.
func appendTable(off []uint32, blob []byte, key string) ([]uint32, []byte) {
	if len(off) == 0 {
		off = append(off, 0)
	}
	blob = append(blob, key...)
	return append(off, uint32(len(blob))), blob
}

// --- TextIndex ------------------------------------------------------------

// TextColumns is the flat columnar image of a TextIndex.
type TextColumns struct {
	// Docs is the document interner table (dense docnum order).
	Docs ids.Columns
	// Live is the number of live (indexed, not removed) documents.
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

// Columns snapshots the index into its columnar image. Deterministic.
func (ix *TextIndex) Columns() TextColumns {
	if ix.seg != nil {
		return ix.seg.c
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	var c TextColumns
	c.Docs = ix.docs.Columns()
	c.Live = uint32(len(ix.docTerms))

	// Term universe: postings ∪ df ∪ surfaces ∪ per-doc terms (the last two
	// defensively; they are subsets in a consistent index).
	tset := make(map[string]bool)
	for t := range ix.postings {
		tset[t] = true
	}
	for t := range ix.df {
		tset[t] = true
	}
	for t := range ix.surfaces {
		tset[t] = true
	}
	fset := make(map[string]bool)
	for _, fields := range ix.docTerms {
		for f, terms := range fields {
			fset[f] = true
			for t := range terms {
				tset[t] = true
			}
		}
	}
	for _, byField := range ix.postings {
		for f := range byField {
			fset[f] = true
		}
	}
	terms := sortedKeys(tset)
	fields := sortedKeys(fset)
	termID := make(map[string]uint32, len(terms))
	for i, t := range terms {
		termID[t] = uint32(i)
		c.TermOff, c.TermBlob = appendTable(c.TermOff, c.TermBlob, t)
	}
	fieldID := make(map[string]uint32, len(fields))
	for i, f := range fields {
		fieldID[f] = uint32(i)
		c.FieldOff, c.FieldBlob = appendTable(c.FieldOff, c.FieldBlob, f)
	}

	// Best surface per term: highest count, ties to the lexically smallest
	// token, the term itself when nothing was recorded — exactly Surface().
	for _, t := range terms {
		best, bestN := t, 0
		for tok, n := range ix.surfaces[t] {
			if n > bestN || (n == bestN && tok < best) {
				best, bestN = tok, n
			}
		}
		c.SurfOff, c.SurfBlob = appendTable(c.SurfOff, c.SurfBlob, best)
	}

	// Postings and df, in term order.
	c.PostFieldStart = append(c.PostFieldStart, 0)
	c.PostStart = append(c.PostStart, 0)
	c.DFStart = append(c.DFStart, 0)
	for _, t := range terms {
		byField := ix.postings[t]
		fnames := make([]string, 0, len(byField))
		for f := range byField {
			fnames = append(fnames, f)
		}
		sort.Strings(fnames)
		for _, f := range fnames {
			p := byField[f]
			c.PostField = append(c.PostField, fieldID[f])
			c.PostDNS = append(c.PostDNS, p.dns...)
			for _, tf := range p.tfs {
				c.PostTFS = append(c.PostTFS, uint32(tf))
			}
			c.PostStart = append(c.PostStart, uint32(len(c.PostDNS)))
		}
		c.PostFieldStart = append(c.PostFieldStart, uint32(len(c.PostField)))
		c.DFDNS = append(c.DFDNS, ix.df[t]...)
		c.DFStart = append(c.DFStart, uint32(len(c.DFDNS)))
	}

	// Per-document rows over the full interner range (removed documents
	// leave empty rows, keeping docnums directly indexable).
	n := ix.docs.Len()
	c.DocFieldStart = append(c.DocFieldStart, 0)
	c.DocTermStart = append(c.DocTermStart, 0)
	for dn := 0; dn < n; dn++ {
		fieldsOf := ix.docTerms[ix.docs.Key(uint32(dn))]
		fnames := make([]string, 0, len(fieldsOf))
		for f := range fieldsOf {
			fnames = append(fnames, f)
		}
		sort.Strings(fnames)
		for _, f := range fnames {
			tcounts := fieldsOf[f]
			tnames := make([]string, 0, len(tcounts))
			for t := range tcounts {
				tnames = append(tnames, t)
			}
			sort.Strings(tnames)
			c.DocField = append(c.DocField, fieldID[f])
			for _, t := range tnames {
				c.DocTerm = append(c.DocTerm, termID[t])
				c.DocTF = append(c.DocTF, uint32(tcounts[t]))
			}
			c.DocTermStart = append(c.DocTermStart, uint32(len(c.DocTerm)))
		}
		c.DocFieldStart = append(c.DocFieldStart, uint32(len(c.DocField)))
	}
	return c
}

// FromTextColumns returns a read-only text index over a columnar image,
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
	s := &segText{c: c}
	if err := s.validate(docs.Len()); err != nil {
		return nil, err
	}
	return &TextIndex{analyzer: a, docs: docs, seg: s}, nil
}

// segText wraps the columns with the lookup helpers TextIndex branches to.
type segText struct {
	c TextColumns
}

func (s *segText) validate(nDocs int) error {
	c := &s.c
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

func (s *segText) termCount() int { return len(s.c.TermOff) - 1 }

//magnet:hot
func (s *segText) findTerm(t string) (int, bool) {
	return findEntry(s.c.TermOff, s.c.TermBlob, t)
}

//magnet:hot
func (s *segText) findField(f string) (int, bool) {
	return findEntry(s.c.FieldOff, s.c.FieldBlob, f)
}

func (s *segText) fieldName(i int) string {
	return string(tableEntry(s.c.FieldOff, s.c.FieldBlob, i))
}

func (s *segText) termName(i int) string {
	return string(tableEntry(s.c.TermOff, s.c.TermBlob, i))
}

// fieldRun returns term ti's (term, field) pair index range.
//
//magnet:hot
func (s *segText) fieldRun(ti int) (int, int) {
	return cutRun(s.c.PostFieldStart, ti, len(s.c.PostField))
}

// postRow returns the posting of absolute (term, field) pair index i.
//
//magnet:hot
func (s *segText) postRow(i int) ([]uint32, []uint32) {
	lo, hi := cutRun(s.c.PostStart, i, len(s.c.PostDNS))
	if hi > len(s.c.PostTFS) {
		return nil, nil
	}
	return s.c.PostDNS[lo:hi], s.c.PostTFS[lo:hi]
}

// findTermField locates field fid within term ti's run.
//
//magnet:hot
func (s *segText) findTermField(ti int, fid uint32) (int, bool) {
	base, end := s.fieldRun(ti)
	row := s.c.PostField[base:end]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < fid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo] == fid {
		return base + lo, true
	}
	return 0, false
}

// dfRow returns term ti's sorted docnum run.
//
//magnet:hot
func (s *segText) dfRow(ti int) []uint32 {
	lo, hi := cutRun(s.c.DFStart, ti, len(s.c.DFDNS))
	return s.c.DFDNS[lo:hi]
}

func (s *segText) surface(ti int) string {
	return string(tableEntry(s.c.SurfOff, s.c.SurfBlob, ti))
}

// docFieldRun returns docnum dn's (doc, field) pair index range.
func (s *segText) docFieldRun(dn uint32) (int, int) {
	return cutRun(s.c.DocFieldStart, int(dn), len(s.c.DocField))
}

// docTermRow returns the term IDs and counts of absolute (doc, field) pair
// index i.
func (s *segText) docTermRow(i int) ([]uint32, []uint32) {
	lo, hi := cutRun(s.c.DocTermStart, i, len(s.c.DocTerm))
	if hi > len(s.c.DocTF) {
		return nil, nil
	}
	return s.c.DocTerm[lo:hi], s.c.DocTF[lo:hi]
}

// docnumsLocked is the segment implementation behind docnumsWithTermLocked.
// Not //magnet:hot: the AnyField branch legitimately allocates the bitmap
// it unions field postings into; the per-lookup kernels it calls are the
// hot-marked ones.
func (s *segText) docnums(ix *TextIndex, term, field string) itemset.Set {
	ti, ok := s.findTerm(term)
	if !ok {
		return itemset.Set{}
	}
	if field != AnyField {
		fi, ok := s.findField(field)
		if !ok {
			return itemset.Set{}
		}
		pair, ok := s.findTermField(ti, uint32(fi))
		if !ok {
			return itemset.Set{}
		}
		dns, _ := s.postRow(pair)
		return itemset.FromSorted(dns)
	}
	lo, hi := s.fieldRun(ti)
	if lo == hi {
		return itemset.Set{}
	}
	if hi-lo == 1 {
		dns, _ := s.postRow(lo)
		return itemset.FromSorted(dns)
	}
	b := itemset.NewBits(ix.docs.Len())
	for pair := lo; pair < hi; pair++ {
		dns, _ := s.postRow(pair)
		b.AddSlice(dns)
	}
	return b.Extract()
}

// score accumulates one analyzed query term's tf·idf contributions into the
// dense score column — the segment half of Search's term loop. Guarded
// against corrupt docnums rather than trusting payload integrity.
func (s *segText) score(term, field string, n float64, scores []float64, touched *itemset.Bits) {
	ti, ok := s.findTerm(term)
	if !ok {
		return
	}
	df := float64(len(s.dfRow(ti)))
	if df == 0 {
		return
	}
	idf := math.Log(n/df) + 1 // +1 keeps single-term queries ranked by tf
	apply := func(pair int) {
		dns, tfs := s.postRow(pair)
		for i, dn := range dns {
			if int(dn) >= len(scores) {
				continue
			}
			scores[dn] += math.Log(float64(tfs[i])+1) * idf
			touched.Add(dn)
		}
	}
	if field == AnyField {
		lo, hi := s.fieldRun(ti)
		for pair := lo; pair < hi; pair++ {
			apply(pair)
		}
	} else if fi, ok := s.findField(field); ok {
		if pair, ok := s.findTermField(ti, uint32(fi)); ok {
			apply(pair)
		}
	}
}

// --- VectorStore ----------------------------------------------------------

// VectorColumns is the flat columnar image of a VectorStore. Document and
// term numbering preserve the interners' dense IDs; removed documents leave
// empty rows and are absent from LiveDNS.
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

// Columns snapshots the store into its columnar image. Deterministic.
func (v *VectorStore) Columns() VectorColumns {
	if v.seg != nil {
		return v.seg.c
	}
	v.mu.Lock()
	defer v.mu.Unlock()

	var c VectorColumns
	c.Docs = v.docs.Columns()
	c.Terms = v.terms.Columns()
	c.DocStart = append(c.DocStart, 0)
	for dn, ts := range v.docTerms {
		c.LiveDNS = append(c.LiveDNS, uint32(dn))
		c.DocTerm = append(c.DocTerm, ts...)
		c.DocFreq = append(c.DocFreq, v.docFreqs[dn]...)
		c.DocStart = append(c.DocStart, uint32(len(c.DocTerm)))
	}
	c.DF = make([]uint32, len(v.df))
	for t, n := range v.df {
		if n > 0 {
			c.DF[t] = uint32(n)
		}
	}
	c.Pinned = make([]byte, (len(v.pinned)+7)/8)
	for t, p := range v.pinned {
		if p {
			c.Pinned[t/8] |= 1 << (t % 8)
		}
	}
	post := v.postingsLocked()
	c.PostStart = append(c.PostStart, 0)
	for _, dns := range post {
		c.PostDNS = append(c.PostDNS, dns...)
		c.PostStart = append(c.PostStart, uint32(len(c.PostDNS)))
	}
	return c
}

// FromVectorColumns returns a read-only vector store over a columnar image.
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
	s := &segVec{c: c}
	if err := s.validate(docs.Len(), terms.Len()); err != nil {
		return nil, err
	}
	return &VectorStore{docs: docs, terms: terms, live: len(c.LiveDNS), seg: s}, nil
}

// segVec wraps the columns with the lookup helpers VectorStore branches to.
type segVec struct {
	c VectorColumns
}

func (s *segVec) validate(nDocs, nTerms int) error {
	c := &s.c
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

// docRow returns docnum dn's sorted term vector (termnums, frequencies).
//
//magnet:hot
func (s *segVec) docRow(dn uint32) ([]uint32, []float64) {
	lo, hi := cutRun(s.c.DocStart, int(dn), len(s.c.DocTerm))
	if hi > len(s.c.DocFreq) {
		return nil, nil
	}
	return s.c.DocTerm[lo:hi], s.c.DocFreq[lo:hi]
}

// liveAt reports whether docnum dn holds a live document.
func (s *segVec) liveAt(dn uint32) bool {
	dns := s.c.LiveDNS
	lo, hi := 0, len(dns)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if dns[mid] < dn {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(dns) && dns[lo] == dn
}

//magnet:hot
func (s *segVec) dfAt(t uint32) int {
	if int(t) >= len(s.c.DF) {
		return 0
	}
	return int(s.c.DF[t])
}

//magnet:hot
func (s *segVec) pinnedAt(t uint32) bool {
	if int(t)/8 >= len(s.c.Pinned) {
		return false
	}
	return s.c.Pinned[t/8]&(1<<(t%8)) != 0
}

// postingFor returns term tn's sorted docnum posting.
//
//magnet:hot
func (s *segVec) postingFor(tn uint32) []uint32 {
	lo, hi := cutRun(s.c.PostStart, int(tn), len(s.c.PostDNS))
	return s.c.PostDNS[lo:hi]
}

// pinnedFromPrefix is the build-side check termnum() uses; kept here so the
// segment view and the mutable store derive pinnedness identically.
func pinnedFromPrefix(prefix, term string) bool {
	return prefix != "" && strings.HasPrefix(term, prefix)
}
