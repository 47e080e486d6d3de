package index

import (
	"math"
	"slices"

	"magnet/internal/ids"
)

// Test-side readers over the frozen stores: the document-frequency, IDF
// and membership probes the round-trip and equivalence tests compare.

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
	return len(ix.dfRow(ti))
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

// postingOf returns term's document posting.
func (v *VectorStore) postingOf(term string) []uint32 {
	t, ok := v.terms.Lookup(term)
	if !ok {
		return nil
	}
	lo, hi := ids.Run(v.c.PostStart, int(t), len(v.c.PostDNS))
	return v.c.PostDNS[lo:hi]
}

// docFreqOf returns the number of documents containing term.
func (v *VectorStore) docFreqOf(term string) int { return len(v.postingOf(term)) }

// docIDs returns the ID of every document holding a term, ascending: the
// union of the postings.
func (v *VectorStore) docIDs() []uint32 {
	var out []uint32
	for t := 0; t < v.terms.Len(); t++ {
		out = append(out, v.postingOf(v.terms.Key(uint32(t)))...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// idfOf returns term's inverse document frequency, log(N/df) over the
// documents holding a term (0 when unknown).
func (v *VectorStore) idfOf(term string) float64 {
	df := v.docFreqOf(term)
	if df == 0 {
		return 0
	}
	return math.Log(float64(len(v.docIDs())) / float64(df))
}
