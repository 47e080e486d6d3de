package core_test

import (
	"strings"
	"testing"

	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/query"
	"magnet/internal/rdf"
)

func softCorpus(t *testing.T) (*core.Magnet, *core.Session) {
	t.Helper()
	gb := recipes.Build(recipes.Config{Recipes: 600, Seed: 1})
	m := core.Open(gb, core.Options{SoftEmptyResults: true})
	return m, m.NewSession()
}

// The study's capture error: walnut constraint plus nut exclusion is
// contradictory and empties the collection. With SoftEmptyResults the user
// lands on a non-empty "closest matches" collection instead of a dead end.
func TestSoftEmptyResultsExclusion(t *testing.T) {
	m, s := softCorpus(t)
	s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(
		query.TypeIs(recipes.ClassRecipe),
		query.Property{Prop: recipes.PropIngredient, Value: recipes.Ingredient("Walnuts")},
	)})
	prev := s.Items()
	if len(prev) == 0 {
		t.Fatal("precondition: walnut recipes exist")
	}
	s.Refine(query.PathProperty{
		Path:  []rdf.IRI{recipes.PropIngredient, recipes.PropGroup},
		Value: recipes.Group("Nuts"),
	}, blackboard.Exclude)

	if len(s.Items()) == 0 {
		t.Fatal("soft refinement should avoid the empty result set")
	}
	if !s.Current().Fixed || !strings.Contains(s.Current().Name, "closest matches") {
		t.Errorf("expected a closest-matches fixed view, got %q", s.Current().Name)
	}
	// Fallback items come from the pre-refinement collection.
	prevSet := map[rdf.IRI]bool{}
	for _, it := range prev {
		prevSet[it] = true
	}
	for _, it := range s.Items() {
		if !prevSet[it] {
			t.Errorf("%s not in the pre-refinement collection", it)
		}
	}
	// Ascending-by-concept ordering: the first fallback item should carry
	// no more nut ingredients than the last.
	nutCount := func(it rdf.IRI) int {
		n := 0
		for _, ing := range m.Graph().Objects(it, recipes.PropIngredient) {
			if m.Graph().Has(ing.(rdf.IRI), recipes.PropGroup, recipes.Group("Nuts")) {
				n++
			}
		}
		return n
	}
	items := s.Items()
	if nutCount(items[0]) > nutCount(items[len(items)-1]) {
		t.Errorf("soft exclude should rank least-nutty first: %d vs %d",
			nutCount(items[0]), nutCount(items[len(items)-1]))
	}
}

func TestSoftEmptyResultsFilter(t *testing.T) {
	_, s := softCorpus(t)
	// Greek recipes that are also Mexican: impossible, so empty.
	s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(
		query.TypeIs(recipes.ClassRecipe),
		query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Greek")},
	)})
	s.Refine(query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Mexican")}, blackboard.Filter)
	if len(s.Items()) == 0 {
		t.Fatal("soft filter should produce closest matches")
	}
	if !s.Current().Fixed {
		t.Error("expected fixed closest-matches view")
	}
}

func TestSoftDisabledByDefault(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 300, Seed: 1})
	m := core.Open(gb, core.Options{})
	s := m.NewSession()
	s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(
		query.Property{Prop: recipes.PropIngredient, Value: recipes.Ingredient("Walnuts")},
	)})
	s.Refine(query.PathProperty{
		Path:  []rdf.IRI{recipes.PropIngredient, recipes.PropGroup},
		Value: recipes.Group("Nuts"),
	}, blackboard.Exclude)
	if len(s.Items()) != 0 {
		t.Error("without the option, the contradictory refinement should be empty")
	}
}

func TestSoftGivesUpOnUnknownConcept(t *testing.T) {
	_, s := softCorpus(t)
	s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(query.TypeIs(recipes.ClassRecipe))})
	s.Refine(query.Property{
		Prop:  recipes.PropIngredient,
		Value: rdf.IRI(recipes.NS + "ingredient/unobtainium"),
	}, blackboard.Filter)
	if len(s.Items()) != 0 {
		t.Error("a predicate matching nothing anywhere has no concept; result must stay empty")
	}
}

func TestRankedItemsTextRelevance(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 800, Seed: 1})
	m := core.Open(gb, core.Options{})
	s := m.NewSession()
	s.Search("walnut")
	ranked := s.RankedItems(core.RankOptions{})
	if len(ranked) == 0 || len(ranked) != len(s.Items()) {
		t.Fatalf("ranking must reorder, not filter: %d vs %d", len(ranked), len(s.Items()))
	}
	// Higher term frequency ranks first: the top item should mention
	// walnut at least as often as the bottom one.
	countOf := func(it rdf.IRI) int {
		title, _ := m.Graph().Object(it, recipes.PropTitle)
		content, _ := m.Graph().Object(it, recipes.PropContent)
		text := strings.ToLower(title.(rdf.Literal).Lexical + " " + content.(rdf.Literal).Lexical)
		return strings.Count(text, "walnut")
	}
	if countOf(ranked[0]) < countOf(ranked[len(ranked)-1]) {
		t.Errorf("top item mentions walnut %d times, bottom %d",
			countOf(ranked[0]), countOf(ranked[len(ranked)-1]))
	}
	if countOf(ranked[0]) < 1 {
		t.Error("top-ranked item should mention walnut")
	}
}

func TestRankedItemsLengthBias(t *testing.T) {
	gb := rdf.NewBuilder()
	cls := rdf.IRI("http://e/Doc")
	long, short := rdf.IRI("http://e/long"), rdf.IRI("http://e/short")
	gb.Add(long, rdf.Type, cls)
	gb.Add(long, rdf.DCTitle, rdf.NewString("walnut walnut story with many many extra words here to make it long"))
	gb.Add(short, rdf.Type, cls)
	gb.Add(short, rdf.DCTitle, rdf.NewString("walnut walnut"))
	m := core.Open(gb, core.Options{})
	s := m.NewSession()
	s.Search("walnut")

	biased := s.RankedItems(core.RankOptions{LengthBias: 5})
	if biased[0] != long {
		t.Errorf("length bias should favour the long document, got %v", biased)
	}
}

func TestRankedItemsStableWithoutText(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 100, Seed: 1})
	m := core.Open(gb, core.Options{})
	s := m.NewSession()
	s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(query.TypeIs(recipes.ClassRecipe))})
	ranked := s.RankedItems(core.RankOptions{})
	items := s.Items()
	for i := range items {
		if ranked[i] != items[i] {
			t.Fatal("no text constraints: order should be stable")
		}
	}
}
