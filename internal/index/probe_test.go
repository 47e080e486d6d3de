package index

import "sort"

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

// hasDoc reports whether docID is stored.
func (v *VectorStore) hasDoc(docID string) bool {
	dn, ok := v.docs.Lookup(docID)
	return ok && v.liveAt(dn)
}

// docFreqOf returns the number of documents containing term.
func (v *VectorStore) docFreqOf(term string) int {
	t, ok := v.terms.Lookup(term)
	if !ok {
		return 0
	}
	return v.df(t)
}

// idfOf returns term's inverse document frequency (0 when unknown).
func (v *VectorStore) idfOf(term string) float64 {
	t, ok := v.terms.Lookup(term)
	if !ok {
		return 0
	}
	return v.idf(t)
}

// docIDs returns every stored document ID, sorted.
func (v *VectorStore) docIDs() []string {
	out := v.docs.AppendKeys(make([]string, 0, v.Len()), v.c.LiveDNS)
	sort.Strings(out)
	return out
}
