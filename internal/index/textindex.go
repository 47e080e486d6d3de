package index

import (
	"math"
	"time"

	"magnet/internal/ids"
	"magnet/internal/itemset"
	"magnet/internal/obs"
	"magnet/internal/text"
)

// Text-index observability: one counter + duration histogram per lookup
// entry point (boolean matching, single-term matching, ranked search).
// Handles are package level so the per-call cost is two atomic adds.
var (
	textMatchingObs = opObs{obs.NewCounter("index.text.matching.count"), obs.NewHistogram("index.text.matching.ns")}
	textTermObs     = opObs{obs.NewCounter("index.text.term.count"), obs.NewHistogram("index.text.term.ns")}
	textSearchObs   = opObs{obs.NewCounter("index.text.search.count"), obs.NewHistogram("index.text.search.ns")}
)

// opObs pairs the instruments of one operation; observe is designed for
// `defer o.observe(time.Now())`.
type opObs struct {
	count *obs.Counter
	ns    *obs.Histogram
}

func (o opObs) observe(start time.Time) {
	o.count.Inc()
	o.ns.ObserveSince(start)
}

// AnyField is the pseudo-field matching every indexed field in a TextIndex
// query.
const AnyField = ""

// TextIndex is a field-aware inverted text index: the "external index" the
// paper's query engine consults for keyword predicates (§4.2: "the query
// engine has been extended to uniformly query an external index to support
// text in documents"). Documents carry one or more named text fields (e.g.
// title, body); queries may be scoped to a field or span all of them.
//
// A TextBuilder collects the documents; the TextIndex reads the columnar
// image it compiles (segcols.go). Documents are the builder's uint32 IDs
// (Magnet's graph subject IDs); posting lists are sorted ID runs with
// parallel frequencies, so boolean matching is merge-based set algebra
// whose results are already on the query engine's ID plane, and ranked
// retrieval accumulates into a dense score column. The index never
// changes, so reads take no locks.
type TextIndex struct {
	analyzer *text.Analyzer
	//magnet:frozen
	c      TextColumns
	terms  *ids.Strings // sorted
	fields *ids.Strings // sorted
	surfs  *ids.Strings // best surface form, parallel to terms
}

// Columns returns the index's columnar image (what magnet-build writes).
func (ix *TextIndex) Columns() TextColumns { return ix.c }

// Surface returns the most common raw (pre-stemming) token behind an
// analyzed term, for display; falls back to the term itself when unknown.
func (ix *TextIndex) Surface(term string) string {
	if ti, ok := ix.terms.Find(term); ok {
		return ix.surfs.At(ti)
	}
	return term
}

// fieldRun returns term ti's (term, field) pair index range.
//
//magnet:hot
func (ix *TextIndex) fieldRun(ti int) (int, int) {
	return ids.Run(ix.c.PostFieldStart, ti, len(ix.c.PostField))
}

// postRow returns the posting of absolute (term, field) pair index i.
//
//magnet:hot
func (ix *TextIndex) postRow(i int) ([]uint32, []uint32) {
	lo, hi := ids.Run(ix.c.PostStart, i, len(ix.c.PostDNS))
	if hi > len(ix.c.PostTFS) {
		return nil, nil
	}
	return ix.c.PostDNS[lo:hi], ix.c.PostTFS[lo:hi]
}

// findTermField locates field fid within term ti's run.
//
//magnet:hot
func (ix *TextIndex) findTermField(ti int, fid uint32) (int, bool) {
	base, end := ix.fieldRun(ti)
	row := ix.c.PostField[base:end]
	i := searchPost(row, fid)
	if i < len(row) && row[i] == fid {
		return base + i, true
	}
	return 0, false
}

// fieldPair locates the (term, field) pair of term ti in the named field.
//
//magnet:hot
func (ix *TextIndex) fieldPair(ti int, field string) (int, bool) {
	fi, ok := ix.fields.Find(field)
	if !ok {
		return 0, false
	}
	return ix.findTermField(ti, uint32(fi))
}

// dfRow returns term ti's sorted document-ID run.
//
//magnet:hot
func (ix *TextIndex) dfRow(ti int) []uint32 {
	lo, hi := ids.Run(ix.c.DFStart, ti, len(ix.c.DFDNS))
	return ix.c.DFDNS[lo:hi]
}

// rows returns one past the largest document ID the index holds a row
// for: the size of the score column and of the AnyField union, which
// drop posting IDs at or past it.
func (ix *TextIndex) rows() int { return len(ix.c.DocFieldStart) - 1 }

// docFieldRun returns document id's (doc, field) pair index range, empty
// for an ID past the rows.
func (ix *TextIndex) docFieldRun(id uint32) (int, int) {
	return ids.Run(ix.c.DocFieldStart, int(id), len(ix.c.DocField))
}

// idsWithTerm returns the IDs of the documents containing one analyzed
// term in the given field: a zero-copy posting for one field (or a term
// found in only one), a bitmap union of the field postings for AnyField.
func (ix *TextIndex) idsWithTerm(term, field string) itemset.Set {
	ti, ok := ix.terms.Find(term)
	if !ok {
		return itemset.Set{}
	}
	if field != AnyField {
		pair, ok := ix.fieldPair(ti, field)
		if !ok {
			return itemset.Set{}
		}
		dns, _ := ix.postRow(pair)
		return itemset.FromSorted(dns)
	}
	lo, hi := ix.fieldRun(ti)
	if lo == hi {
		return itemset.Set{}
	}
	if hi-lo == 1 {
		dns, _ := ix.postRow(lo)
		return itemset.FromSorted(dns)
	}
	n := ix.rows()
	b := itemset.NewBits(n)
	for pair := lo; pair < hi; pair++ {
		dns, _ := ix.postRow(pair)
		b.AddSliceBelow(dns, n)
	}
	return b.Extract()
}

// MatchingTerm returns the IDs of documents containing one
// already-analyzed term in the given field (AnyField spans all fields). No
// analysis is applied to the input.
func (ix *TextIndex) MatchingTerm(term, field string) itemset.Set {
	defer textTermObs.observe(time.Now())
	return ix.idsWithTerm(term, field)
}

// Matching returns the IDs of documents containing every term of the
// analyzed query in the given field (AnyField spans all fields). This is
// the boolean-AND primitive the query engine's keyword predicate resolves
// through.
func (ix *TextIndex) Matching(query, field string) itemset.Set {
	defer textMatchingObs.observe(time.Now())
	var result itemset.Set
	for i, t := range ix.analyzer.Terms(query) {
		docs := ix.idsWithTerm(t, field)
		if i == 0 {
			result = docs
		} else {
			result = result.Intersect(docs)
		}
		if result.IsEmpty() {
			break
		}
	}
	return result
}

// Search ranks documents against the analyzed free-text query by tf·idf
// (documents need not contain every term). Results are in descending score
// order, ties by ascending ID, at most k (k ≤ 0 means unlimited). Scores
// accumulate into a dense ID-indexed column — no per-document hashing.
func (ix *TextIndex) Search(query, field string, k int) []Scored {
	defer textSearchObs.observe(time.Now())
	terms := ix.analyzer.Terms(query)
	if len(terms) == 0 {
		return nil
	}
	n := float64(ix.c.Live)
	scores := make([]float64, ix.rows())
	touched := itemset.NewBits(len(scores))
	for _, t := range terms {
		ix.score(t, field, n, scores, touched)
	}
	hits := touched.Extract()
	out := make([]Scored, 0, hits.Len())
	for _, id := range hits.Slice() {
		out = append(out, Scored{id, scores[id]})
	}
	sortScored(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// score accumulates one analyzed query term's tf·idf contributions into the
// dense score column. Guarded against corrupt IDs rather than trusting
// payload integrity.
func (ix *TextIndex) score(term, field string, n float64, scores []float64, touched *itemset.Bits) {
	ti, ok := ix.terms.Find(term)
	if !ok {
		return
	}
	df := float64(len(ix.dfRow(ti)))
	if df == 0 {
		return
	}
	idf := math.Log(n/df) + 1 // +1 keeps single-term queries ranked by tf
	apply := func(pair int) {
		dns, tfs := ix.postRow(pair)
		for i, id := range dns {
			if int(id) >= len(scores) {
				continue
			}
			scores[id] += math.Log(float64(tfs[i])+1) * idf
			touched.Add(id)
		}
	}
	if field == AnyField {
		lo, hi := ix.fieldRun(ti)
		for pair := lo; pair < hi; pair++ {
			apply(pair)
		}
	} else if pair, ok := ix.fieldPair(ti, field); ok {
		apply(pair)
	}
}

// Fields returns the distinct field names indexed for document id,
// sorted; empty for an ID without a row.
func (ix *TextIndex) Fields(id uint32) []string {
	lo, hi := ix.docFieldRun(id)
	out := make([]string, 0, hi-lo)
	for _, fi := range ix.c.DocField[lo:hi] {
		out = append(out, ix.fields.At(int(fi)))
	}
	return out // ascending field IDs are already lexical order
}

// FieldTermCounts returns the indexed term counts of (id, field), in a map
// the caller owns; nil when the document has no such field.
func (ix *TextIndex) FieldTermCounts(id uint32, field string) map[string]int {
	fi, ok := ix.fields.Find(field)
	if !ok {
		return nil
	}
	lo, hi := ix.docFieldRun(id)
	for pair := lo; pair < hi; pair++ {
		if ix.c.DocField[pair] != uint32(fi) {
			continue
		}
		tlo, thi := ids.Run(ix.c.DocTermStart, pair, len(ix.c.DocTerm))
		if thi > len(ix.c.DocTF) {
			return nil
		}
		m := make(map[string]int, thi-tlo)
		for i := tlo; i < thi; i++ {
			m[ix.terms.At(int(ix.c.DocTerm[i]))] = int(ix.c.DocTF[i])
		}
		return m
	}
	return nil
}
