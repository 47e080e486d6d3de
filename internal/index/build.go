package index

// The write sides of the text index and the vector store. A builder
// collects documents, then Columns compiles them into the columnar
// image (segcols.go) the frozen reader serves from — the same image
// persistent segments store. Builders offer no reads and are not safe for
// concurrent use.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"magnet/internal/ids"
	"magnet/internal/par"
	"magnet/internal/text"
)

// --- TextBuilder ----------------------------------------------------------

// posting is one term/field posting list: sorted document IDs with
// parallel term frequencies.
type posting struct {
	dns []uint32
	tfs []int
}

// add counts one occurrence of the term in document id.
func (p *posting) add(id uint32) {
	i := searchPost(p.dns, id)
	if i < len(p.dns) && p.dns[i] == id {
		p.tfs[i]++
		return
	}
	p.dns = append(p.dns, 0)
	p.tfs = append(p.tfs, 0)
	copy(p.dns[i+1:], p.dns[i:])
	copy(p.tfs[i+1:], p.tfs[i:])
	p.dns[i] = id
	p.tfs[i] = 1
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

// TextBuilder is the write side of a TextIndex: text keyed by
// caller-chosen document IDs (Magnet's graph subject IDs).
type TextBuilder struct {
	analyzer *text.Analyzer

	// postings: term → field → posting list.
	postings map[string]map[string]*posting
	// docLen, indexed by document ID: accepted tokens across all fields;
	// zero for an ID that holds no document.
	docLen []uint32
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
		postings: make(map[string]map[string]*posting),
		surfaces: make(map[string]map[string]int),
	}
}

// Index adds the raw text under (id, field), accumulating with any text
// already indexed for that pair.
func (ix *TextBuilder) Index(id uint32, field, raw string) {
	n := 0
	for _, tok := range text.Tokenize(raw) {
		term, ok := ix.analyzer.Term(tok)
		if !ok {
			continue
		}
		n++
		byField := ix.postings[term]
		if byField == nil {
			byField = make(map[string]*posting)
			ix.postings[term] = byField
		}
		p := byField[field]
		if p == nil {
			p = &posting{}
			byField[field] = p
		}
		p.add(id)
		surf := ix.surfaces[term]
		if surf == nil {
			surf = make(map[string]int)
			ix.surfaces[term] = surf
		}
		surf[tok]++
	}
	if n == 0 {
		return
	}
	for int(id) >= len(ix.docLen) {
		ix.docLen = append(ix.docLen, 0)
	}
	ix.docLen[id] += uint32(n)
}

// appendTable appends key to an offset/blob table.
func appendTable(off []uint32, blob []byte, key string) ([]uint32, []byte) {
	blob = append(blob, key...)
	return append(off, uint32(len(blob))), blob
}

// Columns compiles the index into its columnar image. The image depends
// only on the set of Index calls, not on their order.
func (ix *TextBuilder) Columns() TextColumns {
	var c TextColumns
	for _, n := range ix.docLen {
		if n > 0 {
			c.Live++
		}
	}

	// Every accepted token adds to a posting and a surface count, so the
	// postings name every term and field.
	terms := make([]string, 0, len(ix.postings))
	fset := make(map[string]bool)
	for t, byField := range ix.postings {
		terms = append(terms, t)
		for f := range byField {
			fset[f] = true
		}
	}
	fields := make([]string, 0, len(fset))
	for f := range fset {
		fields = append(fields, f)
	}
	sort.Strings(terms)
	sort.Strings(fields)
	c.TermOff, c.FieldOff, c.SurfOff = []uint32{0}, []uint32{0}, []uint32{0}
	for _, t := range terms {
		c.TermOff, c.TermBlob = appendTable(c.TermOff, c.TermBlob, t)
	}
	fieldID := make(map[string]uint32, len(fields))
	for i, f := range fields {
		fieldID[f] = uint32(i)
		c.FieldOff, c.FieldBlob = appendTable(c.FieldOff, c.FieldBlob, f)
	}

	// Best surface per term: highest count, ties to the lexically smallest
	// token.
	for _, t := range terms {
		best, bestN := t, 0
		for tok, n := range ix.surfaces[t] {
			if n > bestN || (n == bestN && tok < best) {
				best, bestN = tok, n
			}
		}
		c.SurfOff, c.SurfBlob = appendTable(c.SurfOff, c.SurfBlob, best)
	}

	// Postings and document frequencies, in term order. A term's DF is the
	// size of the union of its field postings: seen holds, per document
	// ID, the term index + 1 that last counted it.
	c.PostFieldStart = append(c.PostFieldStart, 0)
	c.PostStart = append(c.PostStart, 0)
	c.DF = make([]uint32, len(terms))
	seen := make([]uint32, len(ix.docLen))
	for ti, t := range terms {
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
			for i, id := range p.dns {
				c.PostTFS = append(c.PostTFS, uint32(p.tfs[i]))
				if seen[id] != uint32(ti+1) {
					seen[id] = uint32(ti + 1)
					c.DF[ti]++
				}
			}
			c.PostStart = append(c.PostStart, uint32(len(c.PostDNS)))
		}
		c.PostFieldStart = append(c.PostFieldStart, uint32(len(c.PostField)))
	}
	c.DocLen = slices.Clone(ix.docLen)
	return c
}

// --- VectorBuilder --------------------------------------------------------

// VectorBuilder is the write side of a VectorStore: raw term-frequency
// vectors keyed by caller-chosen document IDs (Magnet's graph subject
// IDs), compiled into normalized tf·idf rows. The caller numbers its terms
// (coordinates) itself and names each one once; the builder interns term
// names to dense termnums in Add order.
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
	// ext maps the caller's term numbers to termnums.
	ext map[uint64]uint32

	// Per-document state, indexed by document ID: sorted termnums with
	// parallel raw frequencies; nil for an ID never added.
	docTerms [][]uint32
	docFreqs [][]float64
	docs     int // documents added

	// Per-term state, indexed by termnum.
	df     []int  // document frequency
	pinned []bool // term carries PinnedPrefix

	// fresh is Add's scratch for terms new to the builder.
	fresh []freshTerm
}

// freshTerm is a term new to the builder, met in one Add.
type freshTerm struct {
	name string
	ext  uint64
	i    int // index in the Add's row
}

// NewVectorBuilder returns an empty vector-store builder.
func NewVectorBuilder() *VectorBuilder {
	return &VectorBuilder{terms: ids.NewInterner[string](), ext: make(map[uint64]uint32)}
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

// Add stores the raw term-frequency vector of document id: terms[i] is
// the caller's number for a term and freqs[i] its frequency, each term at
// most once. name(t) names term t the first time this builder meets t;
// distinct numbers must have distinct names. Adding an ID the builder
// already holds panics. Frequencies must be positive; non-positive entries
// are dropped.
func (v *VectorBuilder) Add(id uint32, terms []uint64, freqs []float64, name func(uint64) string) {
	if int(id) < len(v.docTerms) && v.docTerms[id] != nil {
		panic(fmt.Sprintf("index: vector store already holds document %d", id))
	}
	row := make([]termFreq, 0, len(terms))
	fresh := v.fresh[:0]
	for i, c := range terms {
		if freqs[i] <= 0 {
			continue
		}
		if t, ok := v.ext[c]; ok {
			row = append(row, termFreq{t, freqs[i]})
		} else {
			fresh = append(fresh, freshTerm{name(c), c, i})
		}
	}
	// New terms intern in lexical order, so the numbering — and with it
	// every kernel's summation order — depends only on the sequence of
	// Adds, never on the caller's numbering or row order.
	slices.SortFunc(fresh, func(a, b freshTerm) int { return strings.Compare(a.name, b.name) })
	for _, f := range fresh {
		t := v.termnum(f.name)
		v.ext[f.ext] = t
		row = append(row, termFreq{t, freqs[f.i]})
	}
	v.fresh = fresh[:0]
	slices.SortFunc(row, func(a, b termFreq) int { return cmp.Compare(a.t, b.t) })
	ts := make([]uint32, len(row)) // non-nil: marks id as added
	fs := make([]float64, len(row))
	for i, tf := range row {
		ts[i], fs[i] = tf.t, tf.f
		v.df[tf.t]++
	}
	for int(id) >= len(v.docTerms) {
		v.docTerms = append(v.docTerms, nil)
		v.docFreqs = append(v.docFreqs, nil)
	}
	v.docTerms[id], v.docFreqs[id] = ts, fs
	v.docs++
}

// termFreq is one row entry of Add: a termnum and its raw frequency.
type termFreq struct {
	t uint32
	f float64
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
// normalized tf·idf row. Weights are normalized by the row's length,
// summed in ascending termnum order. Deterministic.
func (v *VectorBuilder) Columns() VectorColumns {
	var c VectorColumns
	c.Terms = v.terms.Columns()
	c.RowStart = append(make([]uint32, 0, len(v.docTerms)+1), 0)
	n := 0
	for _, ts := range v.docTerms {
		n += len(ts)
	}
	if n > 0 {
		c.RowTerm, c.RowWeight = make([]uint32, 0, n), make([]float64, 0, n)
	}
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
	}
	return c
}
