package index

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"magnet/internal/itemset"
)

const eps = 1e-9

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Document IDs of the small hand-built stores below.
const (
	d1 uint32 = iota + 1
	d2
	d3
	d4
	missing uint32 = 99
)

func TestVectorStoreAdd(t *testing.T) {
	b := NewVectorBuilder()
	b.Add(d1, map[string]float64{"a": 1, "b": 2})
	b.Add(d2, map[string]float64{"b": 1, "c": 1})
	v := b.Freeze(nil)
	if got := v.docIDs(); !reflect.DeepEqual(got, []uint32{d1, d2}) {
		t.Fatalf("documents = %v", got)
	}
	if v.docFreqOf("b") != 2 || v.docFreqOf("a") != 1 || v.docFreqOf("z") != 0 {
		t.Errorf("DocFreq wrong: b=%d a=%d z=%d", v.docFreqOf("b"), v.docFreqOf("a"), v.docFreqOf("z"))
	}
}

// The store is add-only: storing an ID a second time panics and leaves the
// first vector in place.
func TestVectorStoreAddTwicePanics(t *testing.T) {
	b := NewVectorBuilder()
	b.Add(d1, map[string]float64{"a": 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second Add of the same ID did not panic")
			}
		}()
		b.Add(d1, map[string]float64{"b": 1})
	}()
	v := b.Freeze(nil)
	if n := len(v.docIDs()); n != 1 || v.docFreqOf("a") != 1 || v.docFreqOf("b") != 0 {
		t.Errorf("after the rejected Add: %d documents, df(a)=%d df(b)=%d", n, v.docFreqOf("a"), v.docFreqOf("b"))
	}
}

func TestVectorStoreDropsNonPositive(t *testing.T) {
	b := NewVectorBuilder()
	b.Add(d1, map[string]float64{"a": 0, "b": -1, "c": 2})
	v := b.Freeze(nil)
	if v.docFreqOf("a") != 0 || v.docFreqOf("b") != 0 || v.docFreqOf("c") != 1 {
		t.Error("non-positive frequencies should be dropped")
	}
}

func TestVectorUnitNorm(t *testing.T) {
	b := NewVectorBuilder()
	b.Add(d1, map[string]float64{"a": 3, "b": 1})
	b.Add(d2, map[string]float64{"a": 1, "c": 1})
	b.Add(d3, map[string]float64{"c": 5})
	v := b.Freeze(nil)
	vec := v.vector(d1)
	var norm float64
	for _, w := range vec {
		norm += w * w
	}
	if !almostEqual(norm, 1) {
		t.Errorf("vector norm² = %v, want 1", norm)
	}
}

// The paper's formula: term-weight = log(freq+1) × log(N/df). A term that
// appears in every document gets idf 0 and vanishes from all vectors.
func TestUniversalTermVanishes(t *testing.T) {
	b := NewVectorBuilder()
	b.Add(d1, map[string]float64{"type": 1, "a": 1})
	b.Add(d2, map[string]float64{"type": 1, "b": 1})
	v := b.Freeze(nil)
	if _, ok := v.vector(d1)["type"]; ok {
		t.Error("universal term should have zero weight and be omitted")
	}
	if _, ok := v.vector(d1)["a"]; !ok {
		t.Error("distinctive term should survive")
	}
}

func TestPaperWeightFormula(t *testing.T) {
	// 4 docs; term x in d1 with freq 3, df(x)=2.
	b := NewVectorBuilder()
	b.Add(d1, map[string]float64{"x": 3, "y": 1})
	b.Add(d2, map[string]float64{"x": 1, "z": 1})
	b.Add(d3, map[string]float64{"z": 2})
	b.Add(d4, map[string]float64{"w": 1})

	wx := math.Log(3+1) * math.Log(4.0/2.0)
	wy := math.Log(1+1) * math.Log(4.0/1.0)
	norm := math.Sqrt(wx*wx + wy*wy)
	v := b.Freeze(nil)
	vec := v.vector(d1)
	if !almostEqual(vec["x"], wx/norm) || !almostEqual(vec["y"], wy/norm) {
		t.Errorf("vector = %v, want x=%v y=%v", vec, wx/norm, wy/norm)
	}
}

func TestSimilaritySymmetricAndSelfMax(t *testing.T) {
	b := NewVectorBuilder()
	b.Add(d1, map[string]float64{"a": 2, "b": 1})
	b.Add(d2, map[string]float64{"a": 1, "c": 4})
	b.Add(d3, map[string]float64{"z": 1})
	v := b.Freeze(nil)
	if !almostEqual(v.Similarity(d1, d2), v.Similarity(d2, d1)) {
		t.Error("similarity not symmetric")
	}
	if !almostEqual(v.Similarity(d1, d1), 1) {
		t.Errorf("self similarity = %v, want 1", v.Similarity(d1, d1))
	}
	if v.Similarity(d1, d3) != 0 {
		t.Error("disjoint docs should have zero similarity")
	}
	if v.Similarity(d1, missing) != 0 {
		t.Error("missing doc should have zero similarity")
	}
}

func TestCentroidIsUnitAndAveragesMembership(t *testing.T) {
	b := NewVectorBuilder()
	b.Add(d1, map[string]float64{"a": 1, "c": 1})
	b.Add(d2, map[string]float64{"b": 1, "c": 1})
	b.Add(d3, map[string]float64{"x": 1, "y": 1})
	v := b.Freeze(nil)
	c := v.Centroid(itemset.FromSorted([]uint32{d1, d2}))
	var norm float64
	for _, w := range c {
		norm += w * w
	}
	if !almostEqual(norm, 1) {
		t.Errorf("centroid norm² = %v", norm)
	}
	// A doc sharing the common term c should be more similar to the
	// centroid than the unrelated d3.
	if s := v.ScoreDocs(c, itemset.FromSorted([]uint32{d1, d3})); s[0] <= s[1] {
		t.Error("centroid should prefer members over non-members")
	}
	if len(v.Centroid(itemset.Set{})) != 0 {
		t.Error("empty centroid should be empty")
	}
}

func TestSimilarToRankingAndExclude(t *testing.T) {
	const q, close, far, none = 3, 1, 0, 2
	b := NewVectorBuilder()
	b.Add(q, map[string]float64{"a": 1, "b": 1})
	b.Add(close, map[string]float64{"a": 1, "b": 1, "c": 1})
	b.Add(far, map[string]float64{"a": 1, "z": 5})
	b.Add(none, map[string]float64{"z": 1})

	v := b.Freeze(nil)
	got := v.SimilarToDoc(q, 10)
	if len(got) < 2 || got[0].ID != close {
		t.Fatalf("SimilarToDoc = %v, want close first", got)
	}
	for _, s := range got {
		if s.ID == q {
			t.Error("the query document was returned")
		}
		if s.ID == none {
			t.Error("zero-score doc returned")
		}
	}
	if got2 := v.SimilarToDoc(q, 1); len(got2) != 1 {
		t.Errorf("k=1 returned %d results", len(got2))
	}
	if v.SimilarToDoc(missing, 5) != nil {
		t.Error("an absent document should give nil")
	}
}

func TestTopTerms(t *testing.T) {
	vec := map[string]float64{"a": 0.1, "b": 0.9, "c": 0.5, "d": 0, "e": -1}
	got := TopTerms(vec, 2, nil)
	want := []TermWeight{{"b", 0.9}, {"c", 0.5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopTerms = %v, want %v", got, want)
	}
	// accept filter
	got = TopTerms(vec, 5, func(t string) bool { return t == "a" })
	if len(got) != 1 || got[0].Term != "a" {
		t.Errorf("filtered TopTerms = %v", got)
	}
	if TopTerms(vec, 0, nil) != nil {
		t.Error("k=0 should give nil")
	}
}

func TestTopTermsDeterministicTies(t *testing.T) {
	vec := map[string]float64{"z": 0.5, "a": 0.5, "m": 0.5}
	got := TopTerms(vec, 3, nil)
	if got[0].Term != "a" || got[1].Term != "m" || got[2].Term != "z" {
		t.Errorf("tie order = %v, want alphabetical", got)
	}
}

func TestIDsSorted(t *testing.T) {
	b := NewVectorBuilder()
	for _, id := range []uint32{7, 1, 4} {
		b.Add(id, map[string]float64{"t": 1})
	}
	v := b.Freeze(nil)
	if got := v.docIDs(); !reflect.DeepEqual(got, []uint32{1, 4, 7}) {
		t.Errorf("IDs = %v", got)
	}
	if got := v.postingOf("t"); !reflect.DeepEqual(got, []uint32{1, 4, 7}) {
		t.Errorf("posting = %v", got)
	}
}

func TestVectorStoreConcurrent(t *testing.T) {
	b := NewVectorBuilder()
	for i := 0; i < 600; i++ {
		b.Add(uint32(i), map[string]float64{fmt.Sprintf("t%d", i%7): 1, "common": 1})
	}
	v := b.Freeze(nil)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := uint32(w*100 + i)
				if len(v.Weights(id)) == 0 {
					t.Errorf("%d: empty vector", id)
				}
				v.SimilarToDoc(id, 3)
			}
		}(w)
	}
	wg.Wait()
	if n := len(v.docIDs()); n != 600 {
		t.Errorf("%d documents, want 600", n)
	}
}

// Property: every stored document's derived vector is unit length (or empty
// when all its terms are universal).
func TestQuickVectorsUnitNorm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewVectorBuilder()
		n := rng.Intn(12) + 2
		for i := 0; i < n; i++ {
			freqs := map[string]float64{}
			for j := 0; j < rng.Intn(6)+1; j++ {
				freqs[fmt.Sprintf("t%d", rng.Intn(10))] = float64(rng.Intn(5) + 1)
			}
			b.Add(uint32(i), freqs)
		}
		v := b.Freeze(nil)
		for _, id := range v.docIDs() {
			var norm float64
			for _, w := range v.vector(id) {
				norm += w * w
			}
			if len(v.vector(id)) > 0 && math.Abs(norm-1) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: cosine similarity is bounded in [0, 1+ε] for non-negative
// frequency vectors, and symmetric.
func TestQuickSimilarityBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewVectorBuilder()
		for i := 0; i < 8; i++ {
			freqs := map[string]float64{}
			for j := 0; j < rng.Intn(5)+1; j++ {
				freqs[fmt.Sprintf("t%d", rng.Intn(6))] = float64(rng.Intn(4) + 1)
			}
			b.Add(uint32(i), freqs)
		}
		v := b.Freeze(nil)
		ids := v.docIDs()
		for _, a := range ids {
			for _, b := range ids {
				s := v.Similarity(a, b)
				if s < -eps || s > 1+1e-6 {
					return false
				}
				if math.Abs(s-v.Similarity(b, a)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestAddAfterQueryMatchesBatchBuild: a builder frozen and queried, then
// grown by one more document and frozen again, gives rows, similarity
// scans, Centroid and IDF bit-identical to a store built with every
// document up front — an earlier freeze leaves no trace in the builder.
func TestAddAfterQueryMatchesBatchBuild(t *testing.T) {
	docs := []struct {
		id    uint32
		freqs map[string]float64
	}{
		{d1, map[string]float64{"a": 1, "b": 2, "num|x": 0.5}},
		{d2, map[string]float64{"b": 1, "c": 3}},
		{d3, map[string]float64{"c": 2, "d": 1}},
		{d4, map[string]float64{"a": 3, "c": 1, "e": 2, "num|x": 0.25}},
	}
	builder := func(n int) *VectorBuilder {
		b := NewVectorBuilder()
		b.PinnedPrefix = "num|"
		for _, d := range docs[:n] {
			b.Add(d.id, d.freqs)
		}
		return b
	}
	build := func(n int) *VectorStore { return builder(n).Freeze(nil) }
	ids := itemset.FromSorted([]uint32{d1, d2, d3, d4})

	gb := builder(len(docs) - 1)
	early := gb.Freeze(nil)
	for _, id := range ids.Slice() {
		early.Weights(id)
		early.SimilarToDoc(id, 3)
	}
	early.Centroid(ids)
	last := docs[len(docs)-1]
	gb.Add(last.id, last.freqs)
	grown := gb.Freeze(nil)

	want := build(len(docs))
	same := func(what string, got, exp float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(exp) {
			t.Errorf("%s = %v, want %v (bit-identical)", what, got, exp)
		}
	}
	for _, id := range ids.Slice() {
		got, exp := grown.Weights(id), want.Weights(id)
		if len(got) != len(exp) {
			t.Fatalf("%d: row %v, want %v", id, got, exp)
		}
		for i := range exp {
			if got[i].Term != exp[i].Term {
				t.Fatalf("%d: row terms %v, want %v", id, got, exp)
			}
			same(fmt.Sprintf("%d[%s]", id, exp[i].Term), got[i].Weight, exp[i].Weight)
		}
		gotSim, expSim := grown.SimilarToDoc(id, 3), want.SimilarToDoc(id, 3)
		if len(gotSim) != len(expSim) {
			t.Fatalf("SimilarToDoc(%d) = %v, want %v", id, gotSim, expSim)
		}
		for i := range expSim {
			if gotSim[i].ID != expSim[i].ID {
				t.Fatalf("SimilarToDoc(%d) = %v, want %v", id, gotSim, expSim)
			}
			same(fmt.Sprintf("SimilarToDoc(%d)[%d]", id, expSim[i].ID), gotSim[i].Score, expSim[i].Score)
		}
	}
	gotC, expC := grown.Centroid(ids), want.Centroid(ids)
	if len(gotC) != len(expC) {
		t.Fatalf("Centroid = %v, want %v", gotC, expC)
	}
	for term, w := range expC {
		same("Centroid["+term+"]", gotC[term], w)
	}
	for _, term := range []string{"a", "b", "c", "d", "e", "num|x"} {
		same("IDF("+term+")", grown.idfOf(term), want.idfOf(term))
	}
}
