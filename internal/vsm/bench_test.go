package vsm

import (
	"sort"
	"sync"
	"testing"

	"magnet/internal/datasets/recipes"
	"magnet/internal/index"
	"magnet/internal/itemset"
	"magnet/internal/rdf"
	"magnet/internal/schema"
)

var (
	recipeOnce  sync.Once
	recipeM     *Model
	recipeItems []rdf.IRI
)

// recipeModel indexes the paper's 6,444-recipe corpus once, every recipe
// an item.
func recipeModel() (*Model, []rdf.IRI) {
	recipeOnce.Do(func() {
		g := recipes.Build(recipes.Config{Recipes: 6444, Seed: 1}).Freeze()
		recipeItems = g.SubjectsOfType(recipes.ClassRecipe)
		recipeM = New(g, schema.NewStore(g), Options{})
		recipeM.IndexAll(g.SubjectIDsOf(recipeItems))
	})
	return recipeM, recipeItems
}

// BenchmarkFig4Vectorize (E3): building one item's semistructured vector
// (Figure 3's graph → Figure 4's vector), its raw coordinate row with key
// strings. The walker and scratch are built once, as IndexAll builds them
// once per build, so only the walk, the numeric finish and the keys are
// timed; each literal's analyzed words are cached after the first walk.
func BenchmarkFig4Vectorize(b *testing.B) {
	m, items := recipeModel()
	w := m.newWalker()
	sc := w.newScratch()
	b.ReportAllocs()
	b.ResetTimer()
	var coords int
	for i := 0; i < b.N; i++ {
		coords = len(m.rawVectorWith(w, sc, items[0]))
	}
	b.ReportMetric(float64(coords), "coords")
}

// BenchmarkAblationRefinementWeighting compares §5.3 tf·idf refinement
// ranking against raw-frequency ranking (which lets universal coordinates
// like type=Recipe dominate).
func BenchmarkAblationRefinementWeighting(b *testing.B) {
	m, _ := recipeModel()
	ids := m.g.SubjectIDSet(recipes.PropCuisine, recipes.Cuisine("Greek"))
	b.Run("tfidf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.TopCoords(m.Centroid(ids), 20)
		}
	})
	b.Run("rawFrequency", func(b *testing.B) {
		w := m.newWalker()
		sc := w.newScratch()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rawFrequencyRefinements(m, w, sc, ids, 20)
		}
	})
}

// rawFrequencyRefinements is the ablated §5.3: sum raw coordinate
// frequencies over the collection and take the top terms — no idf, no
// normalization. Every item walks on w and sc.
func rawFrequencyRefinements(m *Model, w *walker, sc *scratch, coll itemset.Set, k int) []index.TermWeight {
	sums := make(map[string]float64)
	for _, it := range m.g.SubjectsFromIDs(coll.Slice()) {
		for term, f := range m.rawVectorWith(w, sc, it) {
			sums[term] += f
		}
	}
	out := make([]index.TermWeight, 0, len(sums))
	for term, f := range sums {
		out = append(out, index.TermWeight{Term: term, Weight: f})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Term < out[j].Term
	})
	return out[:min(k, len(out))]
}
