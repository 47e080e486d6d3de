package index

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentVectorStore exercises the RWMutex discipline: parallel
// writers (Add, which drops the derived-vector cache) against
// parallel readers (Vector/Similarity/SimilarTo/IDF), so -race checks the
// cache rebuild path and the 'guarded by mu' fields together.
func TestConcurrentVectorStore(t *testing.T) {
	v := NewVectorStore()
	const workers = 8
	const iters = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("doc-%d-%d", w, i)
				v.Add(id, map[string]float64{
					"alpha":                     1,
					fmt.Sprintf("term-%d", w):   2,
					fmt.Sprintf("term-%d", i%5): 1,
				})
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
	if v.Len() == 0 {
		t.Error("store ended empty")
	}
}
