package index

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestVectorStoreAdd(t *testing.T) {
	b := NewVectorBuilder()
	b.Add("d1", map[string]float64{"a": 1, "b": 2})
	b.Add("d2", map[string]float64{"b": 1, "c": 1})
	v := b.Freeze()
	if v.Len() != 2 {
		t.Fatalf("Len = %d", v.Len())
	}
	if v.docFreqOf("b") != 2 || v.docFreqOf("a") != 1 || v.docFreqOf("z") != 0 {
		t.Errorf("DocFreq wrong: b=%d a=%d z=%d", v.docFreqOf("b"), v.docFreqOf("a"), v.docFreqOf("z"))
	}
}

// The store is add-only: storing an ID a second time panics and leaves the
// first vector in place.
func TestVectorStoreAddTwicePanics(t *testing.T) {
	b := NewVectorBuilder()
	b.Add("d", map[string]float64{"a": 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second Add of the same ID did not panic")
			}
		}()
		b.Add("d", map[string]float64{"b": 1})
	}()
	v := b.Freeze()
	if v.Len() != 1 || v.docFreqOf("a") != 1 || v.docFreqOf("b") != 0 {
		t.Errorf("after the rejected Add: Len=%d df(a)=%d df(b)=%d", v.Len(), v.docFreqOf("a"), v.docFreqOf("b"))
	}
}

func TestVectorStoreDropsNonPositive(t *testing.T) {
	b := NewVectorBuilder()
	b.Add("d", map[string]float64{"a": 0, "b": -1, "c": 2})
	v := b.Freeze()
	if v.docFreqOf("a") != 0 || v.docFreqOf("b") != 0 || v.docFreqOf("c") != 1 {
		t.Error("non-positive frequencies should be dropped")
	}
}

func TestVectorUnitNorm(t *testing.T) {
	b := NewVectorBuilder()
	b.Add("d1", map[string]float64{"a": 3, "b": 1})
	b.Add("d2", map[string]float64{"a": 1, "c": 1})
	b.Add("d3", map[string]float64{"c": 5})
	v := b.Freeze()
	vec := v.Vector("d1")
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
	b.Add("d1", map[string]float64{"type": 1, "a": 1})
	b.Add("d2", map[string]float64{"type": 1, "b": 1})
	v := b.Freeze()
	if _, ok := v.Vector("d1")["type"]; ok {
		t.Error("universal term should have zero weight and be omitted")
	}
	if _, ok := v.Vector("d1")["a"]; !ok {
		t.Error("distinctive term should survive")
	}
}

func TestPaperWeightFormula(t *testing.T) {
	// 4 docs; term x in d1 with freq 3, df(x)=2.
	b := NewVectorBuilder()
	b.Add("d1", map[string]float64{"x": 3, "y": 1})
	b.Add("d2", map[string]float64{"x": 1, "z": 1})
	b.Add("d3", map[string]float64{"z": 2})
	b.Add("d4", map[string]float64{"w": 1})

	wx := math.Log(3+1) * math.Log(4.0/2.0)
	wy := math.Log(1+1) * math.Log(4.0/1.0)
	norm := math.Sqrt(wx*wx + wy*wy)
	v := b.Freeze()
	vec := v.Vector("d1")
	if !almostEqual(vec["x"], wx/norm) || !almostEqual(vec["y"], wy/norm) {
		t.Errorf("vector = %v, want x=%v y=%v", vec, wx/norm, wy/norm)
	}
}

func TestSimilaritySymmetricAndSelfMax(t *testing.T) {
	b := NewVectorBuilder()
	b.Add("d1", map[string]float64{"a": 2, "b": 1})
	b.Add("d2", map[string]float64{"a": 1, "c": 4})
	b.Add("d3", map[string]float64{"z": 1})
	v := b.Freeze()
	if !almostEqual(v.Similarity("d1", "d2"), v.Similarity("d2", "d1")) {
		t.Error("similarity not symmetric")
	}
	if !almostEqual(v.Similarity("d1", "d1"), 1) {
		t.Errorf("self similarity = %v, want 1", v.Similarity("d1", "d1"))
	}
	if v.Similarity("d1", "d3") != 0 {
		t.Error("disjoint docs should have zero similarity")
	}
	if v.Similarity("d1", "missing") != 0 {
		t.Error("missing doc should have zero similarity")
	}
}

func TestCentroidIsUnitAndAveragesMembership(t *testing.T) {
	b := NewVectorBuilder()
	b.Add("d1", map[string]float64{"a": 1, "c": 1})
	b.Add("d2", map[string]float64{"b": 1, "c": 1})
	b.Add("d3", map[string]float64{"x": 1, "y": 1})
	v := b.Freeze()
	c := v.Centroid([]string{"d1", "d2"})
	var norm float64
	for _, w := range c {
		norm += w * w
	}
	if !almostEqual(norm, 1) {
		t.Errorf("centroid norm² = %v", norm)
	}
	// A doc sharing the common term c should be more similar to the
	// centroid than the unrelated d3.
	if s := v.ScoreDocs(c, []string{"d1", "d3"}); s[0] <= s[1] {
		t.Error("centroid should prefer members over non-members")
	}
	if len(v.Centroid(nil)) != 0 {
		t.Error("empty centroid should be empty")
	}
}

func TestSimilarToRankingAndExclude(t *testing.T) {
	b := NewVectorBuilder()
	b.Add("q", map[string]float64{"a": 1, "b": 1})
	b.Add("close", map[string]float64{"a": 1, "b": 1, "c": 1})
	b.Add("far", map[string]float64{"a": 1, "z": 5})
	b.Add("none", map[string]float64{"z": 1})

	v := b.Freeze()
	got := v.SimilarTo(v.Vector("q"), 10, []string{"q"})
	if len(got) < 2 || got[0].ID != "close" {
		t.Fatalf("SimilarTo = %v, want close first", got)
	}
	for _, s := range got {
		if s.ID == "q" {
			t.Error("excluded doc returned")
		}
		if s.ID == "none" {
			t.Error("zero-score doc returned")
		}
	}
	if got2 := v.SimilarTo(v.Vector("q"), 1, nil); len(got2) != 1 {
		t.Errorf("k=1 returned %d results", len(got2))
	}
	if v.SimilarTo(nil, 5, nil) != nil {
		t.Error("nil query should give nil")
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
	for _, id := range []string{"z", "a", "m"} {
		b.Add(id, map[string]float64{"t": 1})
	}
	v := b.Freeze()
	if got := v.docIDs(); !reflect.DeepEqual(got, []string{"a", "m", "z"}) {
		t.Errorf("IDs = %v", got)
	}
}

func TestVectorStoreConcurrent(t *testing.T) {
	b := NewVectorBuilder()
	for i := 0; i < 600; i++ {
		b.Add(fmt.Sprintf("d%d", i), map[string]float64{fmt.Sprintf("t%d", i%7): 1, "common": 1})
	}
	v := b.Freeze()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("d%d", w*100+i)
				if len(v.Vector(id)) == 0 {
					t.Errorf("%s: empty vector", id)
				}
				v.SimilarTo(map[string]float64{"common": 1}, 3, nil)
			}
		}(w)
	}
	wg.Wait()
	if v.Len() != 600 {
		t.Errorf("Len = %d, want 600", v.Len())
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
			b.Add(fmt.Sprintf("d%d", i), freqs)
		}
		v := b.Freeze()
		for _, id := range v.docIDs() {
			var norm float64
			for _, w := range v.Vector(id) {
				norm += w * w
			}
			if len(v.Vector(id)) > 0 && math.Abs(norm-1) > 1e-6 {
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
			b.Add(fmt.Sprintf("d%d", i), freqs)
		}
		v := b.Freeze()
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
// grown by one more document and frozen again, gives rows, SimilarTo,
// Centroid and IDF bit-identical to a store built with every document up
// front — an earlier freeze and its warmed caches leave no trace.
func TestAddAfterQueryMatchesBatchBuild(t *testing.T) {
	docs := []struct {
		id    string
		freqs map[string]float64
	}{
		{"d1", map[string]float64{"a": 1, "b": 2, "num|x": 0.5}},
		{"d2", map[string]float64{"b": 1, "c": 3}},
		{"d3", map[string]float64{"c": 2, "d": 1}},
		{"d4", map[string]float64{"a": 3, "c": 1, "e": 2, "num|x": 0.25}},
	}
	builder := func(n int) *VectorBuilder {
		b := NewVectorBuilder()
		b.PinnedPrefix = "num|"
		for _, d := range docs[:n] {
			b.Add(d.id, d.freqs)
		}
		return b
	}
	build := func(n int) *VectorStore { return builder(n).Freeze() }
	query := map[string]float64{"a": 0.6, "c": 0.8}
	ids := []string{"d1", "d2", "d3", "d4"}

	gb := builder(len(docs) - 1)
	early := gb.Freeze()
	// Warm every cache the early store has: rows, scratch, centroid.
	for _, id := range ids {
		early.Weights(id)
	}
	early.SimilarTo(query, 3, nil)
	early.Centroid(ids)
	last := docs[len(docs)-1]
	gb.Add(last.id, last.freqs)
	grown := gb.Freeze()

	want := build(len(docs))
	same := func(what string, got, exp float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(exp) {
			t.Errorf("%s = %v, want %v (bit-identical)", what, got, exp)
		}
	}
	for _, id := range ids {
		got, exp := grown.Weights(id), want.Weights(id)
		if len(got) != len(exp) {
			t.Fatalf("%s: row %v, want %v", id, got, exp)
		}
		for i := range exp {
			if got[i].Term != exp[i].Term {
				t.Fatalf("%s: row terms %v, want %v", id, got, exp)
			}
			same(id+"["+exp[i].Term+"]", got[i].Weight, exp[i].Weight)
		}
	}
	gotSim, expSim := grown.SimilarTo(query, 3, nil), want.SimilarTo(query, 3, nil)
	if len(gotSim) != len(expSim) {
		t.Fatalf("SimilarTo = %v, want %v", gotSim, expSim)
	}
	for i := range expSim {
		if gotSim[i].ID != expSim[i].ID {
			t.Fatalf("SimilarTo = %v, want %v", gotSim, expSim)
		}
		same("SimilarTo["+expSim[i].ID+"]", gotSim[i].Score, expSim[i].Score)
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
