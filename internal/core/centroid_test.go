package core_test

import (
	"testing"

	"magnet/internal/obs"
)

// TestOneCentroidPerCollectionRun counts the collection pane's vector
// work exactly: Refine Collections and "similar by content" for a
// collection both start from the view's centroid (§5.3, §4.1), and one
// blackboard run computes it once for both. An item pane computes none.
func TestOneCentroidPerCollectionRun(t *testing.T) {
	m := openCorpus(t, 100)
	defer m.Close()
	s := m.NewSession()
	centroids := obs.Default.Counter("index.centroid.count")
	count := func(step func()) uint64 {
		before := centroids.Value()
		step()
		return centroids.Value() - before
	}

	// Both centroid readers post on a keyword result (on all items no
	// item is left to be similar), so the count below is their shared
	// work, not one analyst's.
	s.Search("walnut")
	posted := map[string]bool{}
	if n := count(func() {
		for _, sg := range s.Board().Suggestions() {
			posted[sg.Analyst] = true
		}
	}); n != 1 {
		t.Errorf("collection board computed %d centroids, want 1", n)
	}
	for _, a := range []string{"query-refinement", "similar-by-content-collection"} {
		if !posted[a] {
			t.Fatalf("%s posted nothing on the walnut view", a)
		}
	}
	if n := count(func() { s.Pane() }); n != 1 {
		t.Errorf("collection pane computed %d centroids, want 1", n)
	}

	s.OpenItem(s.Items()[0])
	if n := count(func() { s.Pane() }); n != 0 {
		t.Errorf("item pane computed %d centroids, want 0", n)
	}
}
