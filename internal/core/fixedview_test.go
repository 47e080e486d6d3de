package core_test

import (
	"testing"

	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/query"
	"magnet/internal/rdf"
)

// Refining a fixed (materialized) collection must filter its members, not
// fall back to the whole corpus — the similar-items-then-exclude-nuts flow.
func TestRefineFixedViewFilterExcludeExpand(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 300, Seed: 1})
	m := core.Open(gb, core.Options{})
	g := m.Graph()
	s := m.NewSession()

	all := g.SubjectsOfType(recipes.ClassRecipe)
	fixed := all[:20]
	s.Apply(blackboard.GoToCollection{Title: "hand-picked", Items: fixed})
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
	s.Apply(blackboard.GoToCollection{Title: "hand-picked", Items: fixed})
	s.Refine(greek, blackboard.Exclude)
	for _, it := range s.Items() {
		if g.Has(it, recipes.PropCuisine, recipes.Cuisine("Greek")) {
			t.Errorf("%s is Greek after exclude", it)
		}
	}

	// Expand: union with all matching items from the corpus.
	s.Apply(blackboard.GoToCollection{Title: "hand-picked", Items: fixed[:3]})
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

func TestAccessors(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 60, Seed: 1})
	m := core.Open(gb, core.Options{})
	if m.Schema() == nil || m.Engine() == nil || m.Graph() == nil ||
		m.Model() == nil || m.TextIndex() == nil {
		t.Fatal("nil accessor")
	}
	item := m.Items()[0]
	if m.Label(item) == "" {
		t.Error("empty label")
	}
	s := m.NewSession()
	if s.History() == nil {
		t.Error("nil history")
	}
	s.Search("soup")
	s.GoHome()
	if !s.Query().IsEmpty() {
		t.Error("GoHome should clear the query")
	}
	// ApplySuggestion wraps Apply.
	sg := blackboard.Suggestion{Action: blackboard.GoToItem{Item: item}}
	if err := s.ApplySuggestion(sg); err != nil || s.Current().Item != item {
		t.Errorf("ApplySuggestion: %v", err)
	}
}
