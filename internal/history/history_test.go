package history

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"magnet/internal/query"
	"magnet/internal/rdf"
)

const ex = "http://example.org/"

// visitCount reads the number of recorded visits under the tracker's lock.
func visitCount(tr *Tracker) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.visits)
}

func TestRecordVisitAndRecent(t *testing.T) {
	tr := NewTracker()
	for _, k := range []string{"a", "b", "c", "b", "d"} {
		tr.RecordVisit(k)
	}
	if cur := tr.visits[len(tr.visits)-1]; cur != "d" {
		t.Errorf("current = %q", cur)
	}
	// Most recent first, distinct, excluding current.
	got := tr.Recent(10)
	want := []string{"b", "c", "a"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Recent = %v, want %v", got, want)
	}
	if got := tr.Recent(1); !reflect.DeepEqual(got, []string{"b"}) {
		t.Errorf("Recent(1) = %v", got)
	}
	if tr.Recent(0) != nil {
		t.Error("Recent(0) should be nil")
	}
}

func TestConsecutiveDuplicatesCollapse(t *testing.T) {
	tr := NewTracker()
	tr.RecordVisit("a")
	tr.RecordVisit("a")
	tr.RecordVisit("a")
	if visitCount(tr) != 1 {
		t.Errorf("Len = %d, want 1", visitCount(tr))
	}
	// No self transition recorded.
	if got := tr.FollowedFrom("a", 5); got != nil {
		t.Errorf("self transitions = %v", got)
	}
	tr.RecordVisit("")
	if visitCount(tr) != 1 {
		t.Error("empty key should be ignored")
	}
}

func TestFollowedFromCountsAndOrder(t *testing.T) {
	tr := NewTracker()
	// a→b twice, a→c once.
	for _, k := range []string{"a", "b", "a", "b", "a", "c"} {
		tr.RecordVisit(k)
	}
	got := tr.FollowedFrom("a", 5)
	want := []Followed{{"b", 2}, {"c", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FollowedFrom = %v, want %v", got, want)
	}
	if got := tr.FollowedFrom("a", 1); len(got) != 1 || got[0].Key != "b" {
		t.Errorf("FollowedFrom(1) = %v", got)
	}
	if tr.FollowedFrom("zzz", 5) != nil {
		t.Error("unknown key should give nil")
	}
}

func TestFollowedFromTieAlphabetical(t *testing.T) {
	tr := NewTracker()
	for _, k := range []string{"a", "z", "a", "b"} {
		tr.RecordVisit(k)
	}
	got := tr.FollowedFrom("a", 5)
	if got[0].Key != "b" || got[1].Key != "z" {
		t.Errorf("tie order = %v", got)
	}
}

func TestRefinementTrailBack(t *testing.T) {
	tr := NewTracker()
	p1 := query.Property{Prop: rdf.IRI(ex + "cuisine"), Value: rdf.IRI(ex + "Greek")}
	p2 := query.Property{Prop: rdf.IRI(ex + "ingredient"), Value: rdf.IRI(ex + "Feta")}
	q0 := query.NewQuery()
	q1 := q0.With(p1)
	q2 := q1.With(p2)
	tr.PushQuery(q0)
	tr.PushQuery(q1)
	tr.PushQuery(q2)
	tr.PushQuery(q2) // duplicate collapses
	if got := tr.Trail(); len(got) != 3 {
		t.Fatalf("Trail len = %d", len(got))
	}
	prev, ok := tr.Back()
	if !ok || prev.Key() != q1.Key() {
		t.Errorf("Back = %v, %v", prev, ok)
	}
	prev, ok = tr.Back()
	if !ok || prev.Key() != q0.Key() {
		t.Errorf("second Back = %v, %v", prev, ok)
	}
	if _, ok := tr.Back(); ok {
		t.Error("Back on single-entry trail should fail")
	}
}

func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.RecordVisit(fmt.Sprintf("k%d", (w+i)%10))
				tr.Recent(3)
				tr.FollowedFrom("k1", 3)
			}
		}(w)
	}
	wg.Wait()
	if visitCount(tr) == 0 {
		t.Error("no visits recorded")
	}
}
