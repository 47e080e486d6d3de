package history

import (
	"fmt"
	"sync"
	"testing"

	"magnet/internal/query"
)

// TestConcurrentTracker hammers every Tracker method from parallel
// goroutines. Run under -race it proves the documented "safe for concurrent
// use" claim and the 'guarded by mu' annotations magnet-vet enforces.
func TestConcurrentTracker(t *testing.T) {
	tr := NewTracker()
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("item-%d-%d", w, i%10)
				tr.RecordVisit(key)
				tr.PushQuery(query.Query{})
				_ = tr.Recent(5)
				_ = tr.FollowedFrom(key, 3)
				_ = tr.Trail()
				_, _ = tr.Back()
				_ = visitCount(tr)
			}
		}(w)
	}
	wg.Wait()
	if visitCount(tr) == 0 {
		t.Error("no visits recorded")
	}
}
