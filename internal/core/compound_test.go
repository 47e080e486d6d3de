package core_test

import (
	"errors"
	"strings"
	"testing"

	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/query"
	"magnet/internal/rdf"
)

func groupPred(name string) query.Predicate {
	return query.PathProperty{
		Path:  []rdf.IRI{recipes.PropIngredient, recipes.PropGroup},
		Value: recipes.Group(name),
	}
}

// The §3.3 example: "he wants only those items in the current collection
// that either have a dairy product or a vegetable in them ... build an 'or'
// refinement, and then drag 'dairy' and 'vegetables' from the panel".
func TestCompoundOrDairyVegetables(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 500, Seed: 1})
	m := core.Open(gb, core.Options{})
	g := m.Graph()
	s := m.NewSession()
	s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(query.TypeIs(recipes.ClassRecipe))})
	before := len(s.Items())

	s.BeginCompound(core.CompoundOr)
	if err := s.AddToCompound(groupPred("Dairy")); err != nil {
		t.Fatal(err)
	}
	if err := s.AddToCompound(groupPred("Vegetables")); err != nil {
		t.Fatal(err)
	}
	// Duplicates collapse.
	s.AddToCompound(groupPred("Dairy"))
	if _, preds, ok := s.Compound(); !ok || len(preds) != 2 {
		t.Fatalf("compound state = %v, %v", preds, ok)
	}
	if err := s.ApplyCompound(blackboard.Filter); err != nil {
		t.Fatal(err)
	}
	after := len(s.Items())
	if after == 0 || after >= before {
		t.Fatalf("compound OR %d → %d", before, after)
	}
	// Every remaining recipe has a dairy or a vegetable ingredient.
	for _, it := range s.Items()[:10] {
		ok := false
		for _, ing := range g.Objects(it, recipes.PropIngredient) {
			iri := ing.(rdf.IRI)
			if g.Has(iri, recipes.PropGroup, recipes.Group("Dairy")) ||
				g.Has(iri, recipes.PropGroup, recipes.Group("Vegetables")) {
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s has neither dairy nor vegetables", it)
		}
	}
	// Builder cleared after apply.
	if _, _, ok := s.Compound(); ok {
		t.Error("compound should clear after ApplyCompound")
	}
}

func TestCompoundAndNarrowsMoreThanOr(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 500, Seed: 1})
	m := core.Open(gb, core.Options{})

	run := func(kind core.CompoundKind) int {
		s := m.NewSession()
		s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(query.TypeIs(recipes.ClassRecipe))})
		s.BeginCompound(kind)
		s.AddToCompound(groupPred("Dairy"))
		s.AddToCompound(groupPred("Vegetables"))
		if err := s.ApplyCompound(blackboard.Filter); err != nil {
			t.Fatal(err)
		}
		return len(s.Items())
	}
	or, and := run(core.CompoundOr), run(core.CompoundAnd)
	if and >= or {
		t.Errorf("AND (%d) should be narrower than OR (%d)", and, or)
	}
	if and == 0 {
		t.Error("AND should still match recipes with both groups")
	}
}

func TestCompoundErrors(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 100, Seed: 1})
	m := core.Open(gb, core.Options{})
	s := m.NewSession()

	if err := s.AddToCompound(groupPred("Dairy")); !errors.Is(err, core.ErrNoCompound) {
		t.Errorf("AddToCompound without builder = %v", err)
	}
	if err := s.ApplyCompound(blackboard.Filter); !errors.Is(err, core.ErrNoCompound) {
		t.Errorf("ApplyCompound without builder = %v", err)
	}
	s.BeginCompound(core.CompoundOr)
	if err := s.ApplyCompound(blackboard.Filter); !errors.Is(err, core.ErrEmptyCompound) {
		t.Errorf("empty compound = %v", err)
	}
	s.BeginCompound(core.CompoundAnd)
	s.AddToCompound(groupPred("Dairy"))
	s.CancelCompound()
	if _, _, ok := s.Compound(); ok {
		t.Error("CancelCompound should clear the builder")
	}
}

// The §3.3 finale: refine the *ingredients* collection, then apply it back
// to recipes with or/and semantics.
func TestApplyValueSet(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 500, Seed: 1})
	m := core.Open(gb, core.Options{})
	g := m.Graph()
	s := m.NewSession()

	// The user browses to the ingredient collection and refines it to one
	// group (standing in for "found only in North America").
	s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(
		query.TypeIs(recipes.ClassIngredient),
		query.Property{Prop: recipes.PropGroup, Value: recipes.Group("Legumes")},
	)})
	legumes := s.Items()
	if len(legumes) == 0 {
		t.Fatal("no legume ingredients")
	}

	target := query.NewQuery(query.TypeIs(recipes.ClassRecipe))

	// ANY: recipes with at least one legume.
	s.ApplyValueSet(target, recipes.PropIngredient, legumes, false, "legume ingredients")
	anyCount := len(s.Items())
	if anyCount == 0 {
		t.Fatal("no recipes with legumes")
	}
	for _, it := range s.Items()[:5] {
		found := false
		for _, ing := range g.Objects(it, recipes.PropIngredient) {
			if g.Has(ing.(rdf.IRI), recipes.PropGroup, recipes.Group("Legumes")) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s has no legume", it)
		}
	}
	// Constraint describes itself with the collection name.
	descs := s.Current().Query.Describe(m.Labeler())
	joined := ""
	for _, d := range descs {
		joined += d + "\n"
	}
	if !strings.Contains(joined, "legume ingredients") {
		t.Errorf("constraint description missing collection name:\n%s", joined)
	}

	// ALL: recipes whose every ingredient is a legume — far rarer.
	s.ApplyValueSet(target, recipes.PropIngredient, legumes, true, "legume ingredients")
	allCount := len(s.Items())
	if allCount >= anyCount {
		t.Errorf("ALL (%d) should be rarer than ANY (%d)", allCount, anyCount)
	}
	for _, it := range s.Items() {
		for _, ing := range g.Objects(it, recipes.PropIngredient) {
			if !g.Has(ing.(rdf.IRI), recipes.PropGroup, recipes.Group("Legumes")) {
				t.Errorf("%s has non-legume ingredient %s", it, ing)
			}
		}
	}
}
