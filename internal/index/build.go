package index

// The write sides of the text index and the vector store. A builder
// collects documents in maps, then Columns compiles them into the columnar
// image (segcols.go) the frozen reader serves from — the same image
// persistent segments store. Builders offer no reads and are not safe for
// concurrent use.

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"magnet/internal/ids"
	"magnet/internal/par"
	"magnet/internal/text"
)

// --- TextBuilder ----------------------------------------------------------

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

// TextBuilder is the write side of a TextIndex.
type TextBuilder struct {
	analyzer *text.Analyzer
	docs     *ids.Interner[string] // docID → dense docnum, append-only

	// postings: term → field → posting list.
	postings map[string]map[string]*posting
	// docTerms: docID → field → term → tf.
	docTerms map[string]map[string]map[string]int
	// df: term → sorted docnums containing it in any field.
	df map[string][]uint32
	// surfaces: analyzed term → raw token → count; tracks the most common
	// pre-stemming surface form so suggestions can display "parsley" rather
	// than the stem "parslei".
	surfaces map[string]map[string]int
}

// NewTextBuilder returns an empty text-index builder using the given
// analyzer (text.DefaultAnalyzer when nil).
func NewTextBuilder(a *text.Analyzer) *TextBuilder {
	if a == nil {
		a = text.DefaultAnalyzer
	}
	return &TextBuilder{
		analyzer: a,
		docs:     ids.NewInterner[string](),
		postings: make(map[string]map[string]*posting),
		docTerms: make(map[string]map[string]map[string]int),
		df:       make(map[string][]uint32),
		surfaces: make(map[string]map[string]int),
	}
}

// Index adds the raw text under (docID, field), accumulating with any text
// already indexed for that pair.
func (ix *TextBuilder) Index(docID, field, raw string) {
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
	blob = append(blob, key...)
	return append(off, uint32(len(blob))), blob
}

// Columns compiles the index into its columnar image. Deterministic.
func (ix *TextBuilder) Columns() TextColumns {
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
	c.TermOff, c.FieldOff, c.SurfOff = []uint32{0}, []uint32{0}, []uint32{0}
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
	// token, the term itself when nothing was recorded.
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

	// Per-document rows over the full docnum range.
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

// --- VectorBuilder --------------------------------------------------------

// VectorBuilder is the write side of a VectorStore: raw term-frequency
// vectors keyed by caller-chosen document IDs (Magnet's graph subject
// IDs), compiled into normalized tf·idf rows. Terms are interned to dense
// numbers in Add order.
type VectorBuilder struct {
	// PinnedPrefix, when non-empty, marks terms whose stored frequency is
	// used directly as the (pre-normalization) weight, bypassing the
	// log(freq+1)·idf formula. Magnet uses this for unit-circle numeric
	// coordinates (paper §5.4): a date attribute present on every document
	// would otherwise get idf 0 and vanish, defeating the encoding's point
	// ("two e-mails received a day apart ... have some similar attributes").
	// Must be set before any Add.
	PinnedPrefix string

	terms *ids.Interner[string] // term → dense termnum, append-only

	// Per-document state, indexed by document ID: sorted termnums with
	// parallel raw frequencies; nil for an ID never added.
	docTerms [][]uint32
	docFreqs [][]float64
	docs     int // documents added

	// Per-term state, indexed by termnum.
	df     []int  // document frequency
	pinned []bool // term carries PinnedPrefix
}

// NewVectorBuilder returns an empty vector-store builder.
func NewVectorBuilder() *VectorBuilder {
	return &VectorBuilder{terms: ids.NewInterner[string]()}
}

// termnum interns term and grows the per-term columns to cover it.
func (v *VectorBuilder) termnum(term string) uint32 {
	t := v.terms.Intern(term)
	for int(t) >= len(v.df) {
		v.df = append(v.df, 0)
		v.pinned = append(v.pinned, v.PinnedPrefix != "" && strings.HasPrefix(v.terms.Key(uint32(len(v.pinned))), v.PinnedPrefix))
	}
	return t
}

// Add stores the raw term-frequency vector of document id; adding an ID
// the builder already holds panics. Frequencies must be positive;
// non-positive entries are dropped.
func (v *VectorBuilder) Add(id uint32, freqs map[string]float64) {
	if int(id) < len(v.docTerms) && v.docTerms[id] != nil {
		panic(fmt.Sprintf("index: vector store already holds document %d", id))
	}
	terms := make([]uint32, 0, len(freqs)) // non-nil: marks id as added
	var fresh []string
	for term, f := range freqs {
		if f <= 0 {
			continue
		}
		if t, ok := v.terms.Lookup(term); ok {
			terms = append(terms, t)
		} else {
			fresh = append(fresh, term)
		}
	}
	// New terms intern in lexical order, so the numbering — and with it
	// every kernel's summation order — depends only on the sequence of
	// Adds, never on map iteration.
	sort.Strings(fresh)
	for _, term := range fresh {
		terms = append(terms, v.termnum(term))
	}
	for _, t := range terms {
		v.df[t]++
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i] < terms[j] })
	fs := make([]float64, len(terms))
	for i, t := range terms {
		fs[i] = freqs[v.terms.Key(t)]
	}
	for int(id) >= len(v.docTerms) {
		v.docTerms = append(v.docTerms, nil)
		v.docFreqs = append(v.docFreqs, nil)
	}
	v.docTerms[id], v.docFreqs[id] = terms, fs
	v.docs++
}

// idf returns termnum t's inverse document frequency, log(N/df).
func (v *VectorBuilder) idf(t uint32) float64 {
	if v.df[t] == 0 {
		return 0
	}
	return math.Log(float64(v.docs) / float64(v.df[t]))
}

// Freeze compiles the builder into a frozen VectorStore whose similarity
// and centroid scans fan out on pool (nil scans serially).
func (v *VectorBuilder) Freeze(pool *par.Pool) *VectorStore {
	r, err := FromVectorColumns(v.Columns(), pool)
	if err != nil {
		panic("index: compiled vector columns rejected: " + err.Error())
	}
	return r
}

// Columns compiles the vectors into their columnar image: each document's
// normalized tf·idf row, and the retrieval postings. Weights are
// normalized by the row's length, summed in ascending termnum order.
// Deterministic.
func (v *VectorBuilder) Columns() VectorColumns {
	var c VectorColumns
	c.Terms = v.terms.Columns()
	c.RowStart = append(make([]uint32, 0, len(v.docTerms)+1), 0)
	post := make([][]uint32, v.terms.Len())
	for dn, ts := range v.docTerms {
		fs := v.docFreqs[dn]
		row := len(c.RowWeight)
		var norm float64
		for i, t := range ts {
			var w float64
			if v.pinned[t] {
				w = fs[i]
			} else {
				w = math.Log(fs[i]+1) * v.idf(t)
			}
			if w == 0 {
				continue
			}
			c.RowTerm = append(c.RowTerm, t)
			c.RowWeight = append(c.RowWeight, w)
			norm += w * w
		}
		if norm > 0 {
			norm = math.Sqrt(norm)
			for i := row; i < len(c.RowWeight); i++ {
				c.RowWeight[i] /= norm
			}
		}
		c.RowStart = append(c.RowStart, uint32(len(c.RowTerm)))
		for _, t := range ts {
			post[t] = append(post[t], uint32(dn))
		}
	}
	c.PostStart = append(make([]uint32, 0, len(post)+1), 0)
	for _, dns := range post {
		c.PostDNS = append(c.PostDNS, dns...)
		c.PostStart = append(c.PostStart, uint32(len(c.PostDNS)))
	}
	return c
}
