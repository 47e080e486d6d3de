package blackboard

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"magnet/internal/itemset"
	"magnet/internal/query"
	"magnet/internal/rdf"
)

const ex = "http://example.org/"

func TestViewShapes(t *testing.T) {
	iv := ItemView(rdf.IRI(ex + "a"))
	if !iv.IsItem() || iv.IsCollection() {
		t.Error("item view shape wrong")
	}
	if iv.Key() != "item:"+ex+"a" {
		t.Errorf("item key = %q", iv.Key())
	}
	cv := CollectionView(query.NewQuery(), nil, itemset.Set{})
	if cv.IsItem() || !cv.IsCollection() {
		t.Error("collection view shape wrong")
	}
	if cv.Collection == nil {
		t.Error("nil items should normalize to empty slice")
	}
}

func TestBoardPostDedup(t *testing.T) {
	b := NewBoard()
	b.Post(Suggestion{Title: "x", Key: "k1", Analyst: "first"})
	b.Post(Suggestion{Title: "y", Key: "k1", Analyst: "second"})
	b.Post(Suggestion{Title: "z", Key: "k2"})
	b.Post(Suggestion{Title: "nokey1"})
	b.Post(Suggestion{Title: "nokey2"})
	ss := b.Suggestions()
	if len(ss) != 4 {
		t.Fatalf("suggestions = %d, want 4 (dup dropped, empty keys kept)", len(ss))
	}
	if ss[0].Analyst != "first" {
		t.Error("first poster should win")
	}
}

func TestBoardByAdvisor(t *testing.T) {
	b := NewBoard()
	b.Post(Suggestion{Advisor: AdvisorRefine, Title: "a"})
	b.Post(Suggestion{Advisor: AdvisorRelated, Title: "b"})
	b.Post(Suggestion{Advisor: AdvisorRefine, Title: "c"})
	got := b.ByAdvisor()
	if len(got[AdvisorRefine]) != 2 || len(got[AdvisorRelated]) != 1 {
		t.Errorf("ByAdvisor = %v", got)
	}
}

// stub analyst for registry tests.
type stubAnalyst struct {
	name      string
	wantItem  bool
	suggested *int
}

func (s stubAnalyst) Name() string { return s.name }
func (s stubAnalyst) Triggered(v View) bool {
	if s.wantItem {
		return v.IsItem()
	}
	return v.IsCollection()
}
func (s stubAnalyst) Suggest(v View, b *Board) {
	*s.suggested++
	b.Post(Suggestion{Advisor: AdvisorRefine, Title: s.name, Key: s.name, Analyst: s.name})
}

// reactor posts one more suggestion per observed posting.
type stubReactor struct {
	stubAnalyst
	reacted *int
}

func (r stubReactor) React(v View, posted []Suggestion, b *Board) {
	*r.reacted = len(posted)
	b.Post(Suggestion{Advisor: AdvisorModify, Title: "reaction", Key: "reaction"})
}

func TestRegistryTriggering(t *testing.T) {
	itemCount, collCount := 0, 0
	r := NewRegistry(nil,
		stubAnalyst{name: "itemAnalyst", wantItem: true, suggested: &itemCount},
		stubAnalyst{name: "collAnalyst", wantItem: false, suggested: &collCount},
	)
	b := r.RunContext(context.Background(), ItemView(rdf.IRI(ex+"x")))
	if itemCount != 1 || collCount != 0 {
		t.Errorf("item view triggered item=%d coll=%d", itemCount, collCount)
	}
	if len(b.Suggestions()) != 1 {
		t.Errorf("suggestions = %v", b.Suggestions())
	}
	r.RunContext(context.Background(), CollectionView(query.NewQuery(), []rdf.IRI{}, itemset.Set{}))
	if collCount != 1 {
		t.Errorf("collection analyst not triggered")
	}
}

func TestReactorRunsAfterPrimaryRound(t *testing.T) {
	n1, n2, reacted := 0, 0, 0
	r := NewRegistry(nil,
		stubReactor{stubAnalyst{name: "reactor", wantItem: true, suggested: &n1}, &reacted},
		stubAnalyst{name: "plain", wantItem: true, suggested: &n2},
	)
	b := r.RunContext(context.Background(), ItemView(rdf.IRI(ex+"x")))
	// Reactor saw both primary postings (its own + plain's).
	if reacted != 2 {
		t.Errorf("reactor saw %d postings, want 2", reacted)
	}
	found := false
	for _, s := range b.Suggestions() {
		if s.Title == "reaction" {
			found = true
		}
	}
	if !found {
		t.Error("reaction suggestion missing")
	}
}

func TestSelectTopWeightThenAlphabetical(t *testing.T) {
	ss := []Suggestion{
		{Title: "zeta", Weight: 0.9},
		{Title: "alpha", Weight: 0.5},
		{Title: "mid", Weight: 0.7},
		{Title: "low", Weight: 0.1},
	}
	sel, omitted := SelectTop(ss, 3)
	if omitted != 1 {
		t.Errorf("omitted = %d", omitted)
	}
	// Top-3 by weight {zeta, mid, alpha}, then alphabetical.
	want := []string{"alpha", "mid", "zeta"}
	got := []string{sel[0].Title, sel[1].Title, sel[2].Title}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SelectTop = %v, want %v", got, want)
	}
	if sel, omitted := SelectTop(ss, 0); sel != nil || omitted != 4 {
		t.Errorf("SelectTop(0) = %v, %d", sel, omitted)
	}
	if sel, _ := SelectTop(nil, 3); sel != nil {
		t.Error("SelectTop(nil)")
	}
}

func TestRefineModesDistinct(t *testing.T) {
	p := query.Property{Prop: rdf.IRI(ex + "p"), Value: rdf.IRI(ex + "v")}
	actions := []Action{
		Refine{Add: p, Mode: Filter},
		Refine{Add: p, Mode: Exclude},
		Refine{Add: p, Mode: Expand},
		GoToCollection{Title: "similar", Items: []rdf.IRI{"x"}},
		GoToItem{Item: "x"},
		ReplaceQuery{Query: query.NewQuery()},
		ShowRange{Prop: rdf.IRI(ex + "n")},
	}
	// All action types satisfy the interface (compile-time) and are
	// distinguishable by type switch.
	kinds := map[string]bool{}
	for _, a := range actions {
		kinds[fmt.Sprintf("%T", a)] = true
	}
	if len(kinds) != 5 { // three Refines share a type
		t.Errorf("action kinds = %v", kinds)
	}
}

func TestBoardConcurrentPost(t *testing.T) {
	b := NewBoard()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b.Post(Suggestion{Title: "t", Key: fmt.Sprintf("%d-%d", w, i)})
			}
		}(w)
	}
	wg.Wait()
	if len(b.Suggestions()) != 400 {
		t.Errorf("posted = %d", len(b.Suggestions()))
	}
}
