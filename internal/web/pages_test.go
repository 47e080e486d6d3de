package web

import (
	"sync"
	"testing"

	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
)

// TestPageWritersDoNotAllocate pins that writing a page into a buffer that
// is already large enough allocates nothing, for every page kind.
func TestPageWritersDoNotAllocate(t *testing.T) {
	m := core.Open(recipes.Build(recipes.Config{Recipes: 400, Seed: 1}), core.Options{})
	t.Cleanup(m.Close)
	for _, c := range studyPages(t, m) {
		buf := c.write(nil)
		if n := testing.AllocsPerRun(20, func() { buf = c.write(buf[:0]) }); n != 0 {
			t.Errorf("%s: %v allocs per page, want 0", c.name, n)
		}
	}
}

var (
	benchPagesOnce sync.Once
	benchPages     []pageCase
)

// BenchmarkWebPages writes each page kind of a study session over the
// paper's 6,444-recipe corpus: the all-items pane, its overview, an item
// card and a range widget.
func BenchmarkWebPages(b *testing.B) {
	benchPagesOnce.Do(func() {
		m := core.Open(recipes.Build(recipes.Config{Recipes: 6444, Seed: 1}), core.Options{})
		benchPages = studyPages(b, m)
	})
	for _, c := range benchPages {
		switch c.name {
		case "home", "home overview", "item", "range":
		default:
			continue
		}
		b.Run(c.name, func(b *testing.B) {
			buf := c.write(nil)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = c.write(buf[:0])
			}
		})
	}
}
