package core_test

import (
	"testing"

	"magnet/internal/core"
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

// TestNumericColumnOncePerStore counts first-numeric column compiles
// exactly: opening compiles none, the first collection pane compiles one
// per numeric property (the range previews), and no later pane, overview
// or item pane of the same instance compiles another. A second instance
// has its own store and compiles its own.
func TestNumericColumnOncePerStore(t *testing.T) {
	compiles := obs.Default.Counter("schema.numbers.compile.count")
	count := func(step func()) uint64 {
		before := compiles.Value()
		step()
		return compiles.Value() - before
	}
	for round := 0; round < 2; round++ {
		var m *core.Magnet
		if n := count(func() { m = openCorpus(t, 100) }); n != 0 {
			t.Errorf("round %d: open compiled %d columns, want 0", round, n)
		}
		numeric := len(m.Schema().NumericProperties())
		if numeric == 0 {
			t.Fatal("the recipe corpus has no numeric property")
		}
		s := m.NewSession()
		if n := count(func() { s.Pane() }); n != uint64(numeric) {
			t.Errorf("round %d: first collection pane compiled %d columns, want %d", round, n, numeric)
		}
		if n := count(func() {
			s.Pane()
			s.Overview(8)
			s.Search("walnut")
			s.Pane()
			s.OpenItem(s.Items()[0])
			s.Pane()
		}); n != 0 {
			t.Errorf("round %d: later steps compiled %d columns, want 0", round, n)
		}
		m.Close()
	}
}
