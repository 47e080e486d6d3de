package core_test

import (
	"reflect"
	"sort"
	"testing"

	"magnet/internal/analysts"
	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/query"
	"magnet/internal/rdf"
)

// idsOf returns the dense IDs of items in their given order.
func idsOf(g *rdf.Graph, items []rdf.IRI) []uint32 {
	ids := make([]uint32, 0, len(items))
	for _, it := range items {
		if id, ok := g.SubjectID(it); ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// Refining a fixed (materialized) collection must filter its members, not
// fall back to the whole corpus — the similar-items-then-exclude-nuts flow.
func TestRefineFixedViewFilterExcludeExpand(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 300, Seed: 1})
	m := core.Open(gb, core.Options{})
	g := m.Graph()
	s := m.NewSession()

	all := g.SubjectsOfType(recipes.ClassRecipe)
	fixed := all[:20]
	s.Apply(blackboard.GoToCollection{Title: "hand-picked", IDs: idsOf(g, fixed)})
	if !s.Current().Fixed || len(s.Items()) != 20 {
		t.Fatal("fixed view setup failed")
	}

	greek := query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Greek")}

	// Filter: only the Greek members remain.
	s.Refine(greek, blackboard.Filter)
	filtered := s.Items()
	for _, it := range filtered {
		if !g.Has(it, recipes.PropCuisine, recipes.Cuisine("Greek")) {
			t.Errorf("%s not Greek", it)
		}
	}
	if len(filtered) >= 20 {
		t.Error("filter did not narrow the fixed view")
	}
	if !s.Current().Fixed {
		t.Error("refined fixed view should stay fixed")
	}

	// Exclude from a fresh fixed view.
	s.Apply(blackboard.GoToCollection{Title: "hand-picked", IDs: idsOf(g, fixed)})
	s.Refine(greek, blackboard.Exclude)
	for _, it := range s.Items() {
		if g.Has(it, recipes.PropCuisine, recipes.Cuisine("Greek")) {
			t.Errorf("%s is Greek after exclude", it)
		}
	}

	// Expand: union with all matching items from the corpus.
	s.Apply(blackboard.GoToCollection{Title: "hand-picked", IDs: idsOf(g, fixed[:3])})
	s.Refine(greek, blackboard.Expand)
	expanded := s.Items()
	if len(expanded) <= 3 {
		t.Error("expand did not broaden the fixed view")
	}
	// Original members stay, even non-Greek ones.
	member := map[rdf.IRI]bool{}
	for _, it := range expanded {
		member[it] = true
	}
	for _, it := range fixed[:3] {
		if !member[it] {
			t.Errorf("original member %s dropped by expand", it)
		}
	}
}

// A fixed view shows its members in the order it was entered with, not in
// ID order: Items, every refinement of the view, and the view found again
// by history keep that order.
func TestFixedViewKeepsDisplayOrder(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 300, Seed: 1})
	var env *analysts.Env
	m := core.Open(gb, core.Options{Analysts: func(e *analysts.Env) []blackboard.Analyst {
		env = e
		return analysts.DefaultSet(e)
	}})
	g := m.Graph()
	s := m.NewSession()

	all := g.SubjectsOfType(recipes.ClassRecipe)
	var order []rdf.IRI
	for _, i := range []int{7, 2, 11, 0, 9, 4, 1, 10, 5, 3, 8, 6} {
		order = append(order, all[i])
	}
	ids := idsOf(g, order)
	if sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		t.Fatal("precondition: the order must not ascend")
	}
	// A repeat and an ID the graph does not hold are dropped on entry.
	entered := append(append([]uint32{}, ids...), ids[0], uint32(g.SubjectTable().Len()+5))
	enter := func() {
		t.Helper()
		if err := s.Apply(blackboard.GoToCollection{Title: "ordered", IDs: entered}); err != nil {
			t.Fatal(err)
		}
	}
	enter()
	if got := s.Items(); !reflect.DeepEqual(got, order) {
		t.Fatalf("Items = %v, want the entered order %v", got, order)
	}
	if s.Current().Len() != len(order) {
		t.Errorf("Len = %d, want %d", s.Current().Len(), len(order))
	}

	greek := recipes.Cuisine("Greek")
	isGreek := func(it rdf.IRI) bool { return g.Has(it, recipes.PropCuisine, greek) }
	keep := func(want bool) []rdf.IRI {
		var out []rdf.IRI
		for _, it := range order {
			if isGreek(it) == want {
				out = append(out, it)
			}
		}
		return out
	}
	if len(keep(true)) < 2 || len(keep(false)) < 2 {
		t.Fatalf("precondition: need Greek and other members, got %d Greek of %d", len(keep(true)), len(order))
	}
	pred := query.Property{Prop: recipes.PropCuisine, Value: greek}

	s.Refine(pred, blackboard.Filter)
	if got := s.Items(); !reflect.DeepEqual(got, keep(true)) {
		t.Errorf("Filter = %v, want the Greek members in order %v", got, keep(true))
	}
	enter()
	s.Refine(pred, blackboard.Exclude)
	if got := s.Items(); !reflect.DeepEqual(got, keep(false)) {
		t.Errorf("Exclude = %v, want the other members in order %v", got, keep(false))
	}

	// Expand: the members in order, then the new matches by ascending IRI.
	enter()
	s.Refine(pred, blackboard.Expand)
	member := map[rdf.IRI]bool{}
	for _, it := range order {
		member[it] = true
	}
	var added []rdf.IRI
	for _, it := range m.Items() {
		if isGreek(it) && !member[it] {
			added = append(added, it)
		}
	}
	sort.Slice(added, func(i, j int) bool { return added[i] < added[j] })
	if want := append(append([]rdf.IRI{}, order...), added...); !reflect.DeepEqual(s.Items(), want) {
		t.Errorf("Expand = %v, want %v", s.Items(), want)
	}

	// History finds the view again in its order.
	enter()
	key := s.Current().Key()
	s.OpenItem(order[0])
	v, ok := env.LookupView(key)
	if !ok {
		t.Fatalf("LookupView(%q) missed", key)
	}
	if got := g.SubjectsFromIDs(v.Members()); !reflect.DeepEqual(got, order) {
		t.Errorf("looked-up view = %v, want %v", got, order)
	}
}

func TestAccessors(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 60, Seed: 1})
	m := core.Open(gb, core.Options{})
	if m.Schema() == nil || m.Graph() == nil ||
		m.Model() == nil || m.TextIndex() == nil {
		t.Fatal("nil accessor")
	}
	item := m.Items()[0]
	if m.Label(item) == "" {
		t.Error("empty label")
	}
	s := m.NewSession()
	s.Search("soup")
	s.GoHome()
	if !s.Current().Query.IsEmpty() {
		t.Error("GoHome should clear the query")
	}
	if err := s.Apply(blackboard.GoToItem{Item: item}); err != nil || s.Current().Item != item {
		t.Errorf("Apply(GoToItem): %v", err)
	}
}
