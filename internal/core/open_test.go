package core_test

import (
	"runtime"
	"testing"

	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
)

// openSegmentsBytes compiles a recipes corpus of n recipes into a segment
// set and returns the fewest heap bytes one OpenSegments of it allocated
// over a few opens.
func openSegmentsBytes(t *testing.T, n int) uint64 {
	t.Helper()
	m := core.Open(recipes.Build(recipes.Config{Recipes: n, Seed: 1}), core.Options{Parallelism: 1})
	dir := t.TempDir()
	if _, err := m.WriteSegments(dir, "recipes", nil); err != nil {
		t.Fatal(err)
	}
	m.Close()
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := core.OpenSegments(dir, core.Options{Parallelism: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestOpenSegmentsAllocationFlat pins O(1) open: OpenSegments of a corpus
// ten times larger allocates the same bytes, give or take a small
// constant. Every lazily decoded table — key strings, the graph's term
// table — must stay off the open path, and the vector store reads its
// compiled rows straight from the columns.
func TestOpenSegmentsAllocationFlat(t *testing.T) {
	small := openSegmentsBytes(t, 200)
	large := openSegmentsBytes(t, 2000)
	const slack = 4 << 10
	t.Logf("OpenSegments allocated %d B at 200 recipes, %d B at 2,000", small, large)
	if large > small+slack {
		t.Errorf("OpenSegments allocated %d B at 2,000 recipes against %d B at 200: open is no longer O(1)", large, small)
	}
}
