package index

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentVectorStore: parallel first readers of a freshly frozen
// store (Vector/Similarity/SimilarTo/Centroid/IDF), so -race checks the
// lazy row-cache fill, the lazy key strings and the 'guarded by mu' fields
// together.
func TestConcurrentVectorStore(t *testing.T) {
	const workers = 8
	const iters = 100
	b := NewVectorBuilder()
	for w := 0; w < workers; w++ {
		for i := 0; i < iters; i++ {
			b.Add(fmt.Sprintf("doc-%d-%d", w, i), map[string]float64{
				"alpha":                     1,
				fmt.Sprintf("term-%d", w):   2,
				fmt.Sprintf("term-%d", i%5): 1,
			})
		}
	}
	v := b.Freeze()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("doc-%d-%d", w, i)
				_ = v.Vector(id)
				_ = v.Similarity(id, "doc-0-0")
				_ = v.SimilarTo(map[string]float64{"alpha": 1}, 3, nil)
				_ = v.IDF("alpha")
				_ = v.DocFreq("alpha")
				_ = v.Len()
				_ = v.IDs()
				_ = v.Centroid([]string{id})
			}
		}(w)
	}
	wg.Wait()
	if v.Len() != workers*iters {
		t.Errorf("Len = %d, want %d", v.Len(), workers*iters)
	}
}
