package index

import (
	"fmt"
	"sync"
	"testing"

	"magnet/internal/itemset"
)

// TestConcurrentVectorStore: parallel first readers of a freshly frozen
// store (Weights/Similarity/SimilarToDoc/Centroid), so -race checks the
// lazy key strings and the recycled scratch vectors together.
func TestConcurrentVectorStore(t *testing.T) {
	const workers = 8
	const iters = 100
	b := NewVectorBuilder()
	for w := 0; w < workers; w++ {
		for i := 0; i < iters; i++ {
			b.addFreqs(uint32(w*iters+i), map[string]float64{
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
				id := uint32(w*iters + i)
				_ = v.Weights(id)
				_ = v.Similarity(id, 0)
				_ = v.SimilarToDoc(id, 3)
				_ = v.Centroid(itemset.FromSorted([]uint32{id}))
			}
		}(w)
	}
	wg.Wait()
	if n := len(b.docIDs()); n != workers*iters {
		t.Errorf("%d documents, want %d", n, workers*iters)
	}
}
