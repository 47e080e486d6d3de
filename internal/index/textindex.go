package index

import (
	"math"
	"sort"
	"sync"
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

// posting is one term/field posting list: sorted dense docnums with
// parallel term frequencies.
type posting struct {
	dns []uint32
	tfs []int
}

// add accumulates c occurrences of the term for docnum dn.
func (p *posting) add(dn uint32, c int) {
	i := searchPost(p.dns, dn)
	if i < len(p.dns) && p.dns[i] == dn {
		p.tfs[i] += c
		return
	}
	p.dns = append(p.dns, 0)
	p.tfs = append(p.tfs, 0)
	copy(p.dns[i+1:], p.dns[i:])
	copy(p.tfs[i+1:], p.tfs[i:])
	p.dns[i] = dn
	p.tfs[i] = c
}

//magnet:hot
func searchPost(dns []uint32, dn uint32) int {
	lo, hi := 0, len(dns)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if dns[mid] < dn {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TextIndex is a field-aware inverted text index: the "external index" the
// paper's query engine consults for keyword predicates (§4.2: "the query
// engine has been extended to uniformly query an external index to support
// text in documents"). Documents carry one or more named text fields (e.g.
// title, body); queries may be scoped to a field or span all of them.
//
// Documents are interned to dense uint32 docnums; posting lists are sorted
// []uint32 + parallel frequency slices, so boolean matching is merge-based
// set algebra and ranked retrieval accumulates into a dense score column.
type TextIndex struct {
	mu       sync.RWMutex
	analyzer *text.Analyzer
	docs     *ids.Interner[string] // docID → dense docnum, append-only

	// postings: term → field → posting list.
	postings map[string]map[string]*posting
	// docTerms: docID → field → term → tf (for existence and Columns).
	docTerms map[string]map[string]map[string]int
	// df: term → sorted docnums containing it in any field.
	df map[string][]uint32
	// surfaces: analyzed term → raw token → count; tracks the most common
	// pre-stemming surface form so suggestions can display "parsley" rather
	// than the stem "parslei".
	surfaces map[string]map[string]int

	// seg, when non-nil, makes the index a read-only view over a columnar
	// segment image: lookups branch to it, the maps above stay nil, and
	// mutations panic. See segcols.go.
	seg *segText
}

// NewTextIndex returns an empty text index using the given analyzer
// (text.DefaultAnalyzer when nil).
func NewTextIndex(a *text.Analyzer) *TextIndex {
	if a == nil {
		a = text.DefaultAnalyzer
	}
	return &TextIndex{
		analyzer: a,
		docs:     ids.NewInterner[string](),
		postings: make(map[string]map[string]*posting),
		docTerms: make(map[string]map[string]map[string]int),
		df:       make(map[string][]uint32),
		surfaces: make(map[string]map[string]int),
	}
}

// Analyzer returns the analyzer used to index and to parse queries.
func (ix *TextIndex) Analyzer() *text.Analyzer { return ix.analyzer }

// mutable panics when the index is a read-only segment view.
func (ix *TextIndex) mutable() {
	if ix.seg != nil {
		panic("index: mutation of read-only segment-backed text index")
	}
}

// Index adds the raw text under (docID, field), accumulating with any text
// already indexed for that pair.
func (ix *TextIndex) Index(docID, field, raw string) {
	ix.mutable()
	tokens := text.Tokenize(raw)
	counts := make(map[string]int, len(tokens))
	surf := make(map[string]map[string]int, len(tokens))
	for _, tok := range tokens {
		analyzed := ix.analyzer.Terms(tok)
		if len(analyzed) != 1 {
			continue
		}
		term := analyzed[0]
		counts[term]++
		m := surf[term]
		if m == nil {
			m = make(map[string]int)
			surf[term] = m
		}
		m[tok]++
	}
	if len(counts) == 0 {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	dn := ix.docs.Intern(docID)
	for term, toks := range surf {
		m := ix.surfaces[term]
		if m == nil {
			m = make(map[string]int)
			ix.surfaces[term] = m
		}
		for tok, n := range toks {
			m[tok] += n
		}
	}
	fields := ix.docTerms[docID]
	if fields == nil {
		fields = make(map[string]map[string]int)
		ix.docTerms[docID] = fields
	}
	terms := fields[field]
	if terms == nil {
		terms = make(map[string]int)
		fields[field] = terms
	}
	for t, c := range counts {
		terms[t] += c
		byField := ix.postings[t]
		if byField == nil {
			byField = make(map[string]*posting)
			ix.postings[t] = byField
		}
		p := byField[field]
		if p == nil {
			p = &posting{}
			byField[field] = p
		}
		p.add(dn, c)
		ix.df[t] = insertDF(ix.df[t], dn)
	}
}

// insertDF inserts dn into a sorted docnum slice if absent.
func insertDF(dns []uint32, dn uint32) []uint32 {
	i := searchPost(dns, dn)
	if i < len(dns) && dns[i] == dn {
		return dns
	}
	dns = append(dns, 0)
	copy(dns[i+1:], dns[i:])
	dns[i] = dn
	return dns
}

// Len returns the number of indexed documents.
func (ix *TextIndex) Len() int {
	if ix.seg != nil {
		return int(ix.seg.c.Live)
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docTerms)
}

// DocFreq returns the number of documents containing term in any field.
// The term is analyzed (stemmed) first.
func (ix *TextIndex) DocFreq(term string) int {
	terms := ix.analyzer.Terms(term)
	if len(terms) != 1 {
		return 0
	}
	if ix.seg != nil {
		ti, ok := ix.seg.findTerm(terms[0])
		if !ok {
			return 0
		}
		return len(ix.seg.dfRow(ti))
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.df[terms[0]])
}

// TermDocFreq returns the number of documents containing one
// already-analyzed (stemmed) term in any field — the raw-term counterpart
// of DocFreq, for callers that hold stems rather than surface text
// (TermMatch predicates, the plan package's cardinality estimator).
func (ix *TextIndex) TermDocFreq(term string) int {
	if term == "" {
		return 0
	}
	if ix.seg != nil {
		ti, ok := ix.seg.findTerm(term)
		if !ok {
			return 0
		}
		return len(ix.seg.dfRow(ti))
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.df[term])
}

// Surface returns the most common raw (pre-stemming) token behind an
// analyzed term, for display; falls back to the term itself when unknown.
func (ix *TextIndex) Surface(term string) string {
	if ix.seg != nil {
		if ti, ok := ix.seg.findTerm(term); ok {
			return ix.seg.surface(ti)
		}
		return term
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	best, bestN := term, 0
	for tok, n := range ix.surfaces[term] {
		if n > bestN || (n == bestN && tok < best) {
			best, bestN = tok, n
		}
	}
	return best
}

// docnumsWithTermLocked returns the docnums containing one analyzed term in
// the given field. Single-field lookups are zero-copy views; AnyField
// unions the field postings through a bitmap.
func (ix *TextIndex) docnumsWithTermLocked(term, field string) itemset.Set {
	if ix.seg != nil {
		return ix.seg.docnums(ix, term, field)
	}
	if field != AnyField {
		return ix.fieldPostingLocked(term, field)
	}
	byField := ix.postings[term]
	if byField == nil {
		return itemset.Set{}
	}
	b := itemset.NewBits(ix.docs.Len())
	for _, p := range byField {
		b.AddSlice(p.dns)
	}
	return b.Extract()
}

// fieldPostingLocked is the zero-copy fast path: the posting view for one
// analyzed term in one concrete field. Callers hold ix.mu.
//
//magnet:hot
func (ix *TextIndex) fieldPostingLocked(term, field string) itemset.Set {
	byField := ix.postings[term]
	if byField == nil {
		return itemset.Set{}
	}
	p := byField[field]
	if p == nil {
		return itemset.Set{}
	}
	return itemset.FromSorted(p.dns)
}

// rehydrate converts a docnum set to sorted docID strings.
func (ix *TextIndex) rehydrate(set itemset.Set) []string {
	out := ix.docs.AppendKeys(make([]string, 0, set.Len()), set.Slice())
	sort.Strings(out)
	return out
}

// MatchingTerm returns the sorted IDs of documents containing one
// already-analyzed term in the given field (AnyField spans all fields). No
// analysis is applied to the input.
func (ix *TextIndex) MatchingTerm(term, field string) []string {
	defer textTermObs.observe(time.Now())
	ix.mu.RLock()
	set := ix.docnumsWithTermLocked(term, field)
	if set.IsEmpty() {
		ix.mu.RUnlock()
		return []string{}
	}
	keys := ix.docs.AppendKeys(make([]string, 0, set.Len()), set.Slice())
	ix.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// Matching returns the IDs of documents containing every term of the
// analyzed query in the given field (AnyField spans all fields), sorted.
// This is the boolean-AND primitive the query engine's keyword predicate
// resolves through.
func (ix *TextIndex) Matching(query, field string) []string {
	defer textMatchingObs.observe(time.Now())
	terms := ix.analyzer.Terms(query)
	if len(terms) == 0 {
		return nil
	}
	ix.mu.RLock()
	var result itemset.Set
	for i, t := range terms {
		docs := ix.docnumsWithTermLocked(t, field)
		if docs.IsEmpty() {
			ix.mu.RUnlock()
			return nil
		}
		if i == 0 {
			result = docs
		} else {
			result = result.Intersect(docs)
		}
		if result.IsEmpty() {
			ix.mu.RUnlock()
			return nil
		}
	}
	keys := ix.docs.AppendKeys(make([]string, 0, result.Len()), result.Slice())
	ix.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// Search ranks documents against the analyzed free-text query by tf·idf
// (documents need not contain every term). Results are in descending score
// order, at most k (k ≤ 0 means unlimited). Scores accumulate into a dense
// docnum-indexed column — no per-document hashing.
func (ix *TextIndex) Search(query, field string, k int) []Scored {
	defer textSearchObs.observe(time.Now())
	terms := ix.analyzer.Terms(query)
	if len(terms) == 0 {
		return nil
	}
	ix.mu.RLock()
	n := float64(len(ix.docTerms))
	if ix.seg != nil {
		n = float64(ix.seg.c.Live)
	}
	scores := make([]float64, ix.docs.Len())
	touched := itemset.NewBits(len(scores))
	for _, t := range terms {
		if ix.seg != nil {
			ix.seg.score(t, field, n, scores, touched)
			continue
		}
		df := float64(len(ix.df[t]))
		if df == 0 {
			continue
		}
		idf := math.Log(n/df) + 1 // +1 keeps single-term queries ranked by tf
		byField := ix.postings[t]
		apply := func(p *posting) {
			for i, dn := range p.dns {
				scores[dn] += math.Log(float64(p.tfs[i])+1) * idf
				touched.Add(dn)
			}
		}
		if field == AnyField {
			for _, p := range byField {
				apply(p)
			}
		} else if p := byField[field]; p != nil {
			apply(p)
		}
	}
	hits := touched.Extract()
	docIDs := ix.docs.AppendKeys(make([]string, 0, hits.Len()), hits.Slice())
	ix.mu.RUnlock()
	out := make([]Scored, 0, hits.Len())
	for i, dn := range hits.Slice() {
		out = append(out, Scored{docIDs[i], scores[dn]})
	}
	sortScored(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Fields returns the distinct field names indexed for docID, sorted.
func (ix *TextIndex) Fields(docID string) []string {
	if ix.seg != nil {
		dn, ok := ix.docs.Lookup(docID)
		if !ok {
			return []string{}
		}
		lo, hi := ix.seg.docFieldRun(dn)
		out := make([]string, 0, hi-lo)
		for pair := lo; pair < hi; pair++ {
			out = append(out, ix.seg.fieldName(int(ix.seg.c.DocField[pair])))
		}
		return out // ascending field IDs are already lexical order
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	fields := ix.docTerms[docID]
	out := make([]string, 0, len(fields))
	for f := range fields {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// FieldTermCounts returns the indexed term counts of (docID, field); the
// returned map must not be mutated.
func (ix *TextIndex) FieldTermCounts(docID, field string) map[string]int {
	if ix.seg != nil {
		dn, ok := ix.docs.Lookup(docID)
		if !ok {
			return nil
		}
		fi, ok := ix.seg.findField(field)
		if !ok {
			return nil
		}
		lo, hi := ix.seg.docFieldRun(dn)
		for pair := lo; pair < hi; pair++ {
			if ix.seg.c.DocField[pair] == uint32(fi) {
				tns, tfs := ix.seg.docTermRow(pair)
				m := make(map[string]int, len(tns))
				for i, tn := range tns {
					m[ix.seg.termName(int(tn))] = int(tfs[i])
				}
				return m
			}
		}
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.docTerms[docID][field]
}
