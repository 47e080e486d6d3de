package index

import (
	"math"
	"sync"

	"magnet/internal/itemset"
)

// Test-side readers over the frozen stores, and the document-frequency,
// IDF and membership probes over a vector builder (the store keeps only
// the compiled rows).

// freezeText compiles a text builder through its columnar image, the path
// core.Open takes.
func freezeText(b *TextBuilder) *TextIndex {
	r, err := FromTextColumns(b.analyzer, b.Columns())
	if err != nil {
		panic("index: compiled text columns rejected: " + err.Error())
	}
	return r
}

// docFreq returns the number of documents containing the analyzed term
// in any field.
func (ix *TextIndex) docFreq(term string) int {
	terms := ix.analyzer.Terms(term)
	if len(terms) != 1 {
		return 0
	}
	ti, ok := ix.terms.Find(terms[0])
	if !ok {
		return 0
	}
	return int(ix.c.DF[ti])
}

// vector returns document id's normalized tf·idf vector as a term-keyed
// map; nil when id holds no document.
func (v *VectorStore) vector(id uint32) map[string]float64 {
	ws := v.Weights(id)
	if ws == nil {
		return nil
	}
	m := make(map[string]float64, len(ws))
	for _, tw := range ws {
		m[tw.Term] = tw.Weight
	}
	return m
}

// centroidVector returns the centroid of members as a map, checking that
// its termnums ascend strictly and its weights parallel them.
func (v *VectorStore) centroidVector(members itemset.Set) map[string]float64 {
	c := v.Centroid(members)
	if len(c.row.terms) != len(c.row.w) {
		panic("centroid terms and weights differ in length")
	}
	m := make(map[string]float64, len(c.row.terms))
	for i, t := range c.row.terms {
		if i > 0 && c.row.terms[i-1] >= t {
			panic("centroid termnums do not ascend")
		}
		m[v.terms.Key(t)] = c.row.w[i]
	}
	return m
}

// centroidOf builds a centroid with the given term weights directly, for
// tests of the readers.
func (v *VectorStore) centroidOf(vec map[string]float64) Centroid {
	var c Centroid
	for _, term := range refTerms(v, vec) {
		t, ok := v.terms.Lookup(term)
		if !ok {
			panic("centroidOf: unknown term " + term)
		}
		c.row.terms = append(c.row.terms, t)
		c.row.w = append(c.row.w, vec[term])
	}
	return c
}

// rankedTerms collects RankTerms' visits, stopping after k.
func (v *VectorStore) rankedTerms(c Centroid, k int) []TermWeight {
	var out []TermWeight
	v.RankTerms(c, func(term string, w float64) bool {
		out = append(out, TermWeight{term, w})
		return len(out) < k
	})
	return out
}

// docFreqOf returns the number of documents holding term.
func (v *VectorBuilder) docFreqOf(term string) int {
	for t := range v.df {
		if v.terms.Key(uint32(t)) == term {
			return v.df[t]
		}
	}
	return 0
}

// docIDs returns the ID of every document holding a term, ascending.
func (v *VectorBuilder) docIDs() []uint32 {
	var out []uint32
	for id, ts := range v.docTerms {
		if len(ts) > 0 {
			out = append(out, uint32(id))
		}
	}
	return out
}

// idfOf returns term's inverse document frequency, log(N/df) over the
// documents holding a term (0 when unknown).
func (v *VectorBuilder) idfOf(term string) float64 {
	df := v.docFreqOf(term)
	if df == 0 {
		return 0
	}
	return math.Log(float64(len(v.docIDs())) / float64(df))
}

// testTerms numbers the term names tests write vectors with, one number
// per name across every builder, as Magnet numbers its coordinates.
var testTerms struct {
	sync.Mutex
	num   map[string]uint64
	names []string
}

func testTermNum(name string) uint64 {
	testTerms.Lock()
	defer testTerms.Unlock()
	if n, ok := testTerms.num[name]; ok {
		return n
	}
	if testTerms.num == nil {
		testTerms.num = make(map[string]uint64)
	}
	n := uint64(len(testTerms.names))
	testTerms.num[name] = n
	testTerms.names = append(testTerms.names, name)
	return n
}

func testTermName(n uint64) string {
	testTerms.Lock()
	defer testTerms.Unlock()
	return testTerms.names[n]
}

// addFreqs adds document id's raw vector given as term name → frequency,
// the shape tests write vectors in.
func (v *VectorBuilder) addFreqs(id uint32, freqs map[string]float64) {
	terms := make([]uint64, 0, len(freqs))
	fs := make([]float64, 0, len(freqs))
	for name, f := range freqs {
		terms = append(terms, testTermNum(name))
		fs = append(fs, f)
	}
	v.Add(id, terms, fs, testTermName)
}
