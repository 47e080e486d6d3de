// Parallel-pipeline benchmarks: the pool's seams (similarity scan, batch
// indexing, and the navigation pane's centroid) measured at fixed worker
// counts. Run with:
//
//	go test -bench='^BenchmarkParallel' -benchmem .
//
// Worker counts cover the serial oracle (1), the EXPERIMENTS.md reference
// point (4), and the machine width (GOMAXPROCS, when distinct). One graph
// and one Magnet per worker count are shared across all benchmarks so
// sub-benchmarks measure the pipeline, not corpus construction.
//
// Caveat for reading committed snapshots: on a single-core container
// (GOMAXPROCS=1) the workers axis measures coordination overhead, not
// speedup — workers=4 cannot beat workers=1 without a second core. Every
// sub-benchmark therefore reports gomaxprocs as a metric, so its result
// line records the machine shape it ran on.
package magnet_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/inbox"
	"magnet/internal/datasets/recipes"
	"magnet/internal/query"
)

// reportEnv records the machine shape on the sub-benchmark, so its result
// line carries its own context.
func reportEnv(b *testing.B) {
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// workerCounts returns the benchmark's worker-count axis: 1, 4 and
// GOMAXPROCS, deduplicated.
func workerCounts() []int {
	counts := []int{1, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 4 {
		counts = append(counts, g)
	}
	return counts
}

var (
	parMu      sync.Mutex
	parRecipes map[int]*core.Magnet
	parInboxes map[int]*core.Magnet
)

// parallelRecipeMagnet returns the recipes@benchCorpusSize Magnet with a
// width-w pool, built once per width.
func parallelRecipeMagnet(w int) *core.Magnet {
	parMu.Lock()
	defer parMu.Unlock()
	if parRecipes == nil {
		parRecipes = make(map[int]*core.Magnet)
	}
	m, ok := parRecipes[w]
	if !ok {
		gb := recipes.Build(recipes.Config{Recipes: benchCorpusSize, Seed: 1})
		m = core.Open(gb, core.Options{Parallelism: w})
		parRecipes[w] = m
	}
	return m
}

func parallelInboxMagnet(w int) *core.Magnet {
	parMu.Lock()
	defer parMu.Unlock()
	if parInboxes == nil {
		parInboxes = make(map[int]*core.Magnet)
	}
	m, ok := parInboxes[w]
	if !ok {
		m = core.Open(inbox.Build(inbox.Config{}), core.Options{Parallelism: w})
		parInboxes[w] = m
	}
	return m
}

// BenchmarkParallelSimilarToItem: P2's top-20 neighbour scan (chunked
// candidate scoring) per worker count.
func BenchmarkParallelSimilarToItem(b *testing.B) {
	for _, w := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			m := parallelRecipeMagnet(w)
			item := m.Graph().SubjectsOfType(recipes.ClassRecipe)[42]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Model().SimilarToItem(item, 20)
			}
			reportEnv(b)
		})
	}
}

// BenchmarkParallelIndexAll: P1's batch (re)indexing (parallel
// vectorization) per worker count.
func BenchmarkParallelIndexAll(b *testing.B) {
	for _, w := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			m := parallelRecipeMagnet(w)
			items := m.Graph().SubjectIDsOf(m.Items())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Model().IndexAll(items)
			}
			b.ReportMetric(float64(items.Len()), "items")
			reportEnv(b)
		})
	}
}

// BenchmarkParallelInboxPane: E5's navigation pane (analysts in order,
// the collection centroid's chunks on the pool) per worker count.
func BenchmarkParallelInboxPane(b *testing.B) {
	for _, w := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			m := parallelInboxMagnet(w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := m.NewSession()
				s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(query.Or{Ps: []query.Predicate{
					query.TypeIs(inbox.ClassMessage), query.TypeIs(inbox.ClassNewsItem),
				}})})
				s.Pane()
			}
			reportEnv(b)
		})
	}
}
