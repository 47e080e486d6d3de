package core_test

import (
	"errors"
	"strings"
	"testing"

	"magnet/internal/analysts"
	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/query"
	"magnet/internal/rdf"
)

func openCorpus(t *testing.T, n int) *core.Magnet {
	t.Helper()
	gb := recipes.Build(recipes.Config{Recipes: n, Seed: 1})
	return core.Open(gb, core.Options{})
}

func TestOpenIndexesTypedItems(t *testing.T) {
	m := openCorpus(t, 200)
	items := m.Items()
	// Typed items: recipes + ingredients + groups + cuisines + courses +
	// methods — every typed subject, not just recipes.
	if len(items) <= 200 {
		t.Errorf("items = %d, expected recipes plus vocabulary", len(items))
	}
	for _, it := range items {
		if len(m.Model().Weights(it)) == 0 {
			t.Fatalf("item %s has no vector", it)
		}
	}
	// Text index knows recipe titles.
	if got := m.TextIndex().Matching("salad", index(m)); got.IsEmpty() {
		t.Error("titles not text-indexed")
	}
}

// index returns the any-field marker (readability helper).
func index(*core.Magnet) string { return "" }

func TestSessionSearchAndRefine(t *testing.T) {
	m := openCorpus(t, 400)
	s := m.NewSession()

	if len(s.Items()) != len(m.Items()) {
		t.Fatal("session should start at the all-items collection")
	}

	// Toolbar keyword search.
	s.Search("salad")
	if len(s.Items()) == 0 {
		t.Fatal("keyword search found nothing")
	}
	for _, it := range s.Items()[:3] {
		title, _ := m.Graph().Object(it, recipes.PropTitle)
		content, hasContent := m.Graph().Object(it, recipes.PropContent)
		text := title.(rdf.Literal).Lexical
		if hasContent {
			text += " " + content.(rdf.Literal).Lexical
		}
		if !strings.Contains(strings.ToLower(text), "salad") {
			t.Errorf("%s does not mention salad: %q", it, text)
		}
	}

	// Refine by cuisine.
	before := len(s.Items())
	s.Refine(query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Greek")}, blackboard.Filter)
	after := len(s.Items())
	if after == 0 || after >= before {
		t.Errorf("refine did not narrow: %d → %d", before, after)
	}
	for _, it := range s.Items() {
		if !m.Graph().Has(it, recipes.PropCuisine, recipes.Cuisine("Greek")) {
			t.Errorf("%s not Greek", it)
		}
	}

	// Constraint list renders.
	pane := s.Pane()
	if len(pane.Constraints) != 2 {
		t.Errorf("constraints = %v", pane.Constraints)
	}

	// Remove the keyword constraint.
	s.RemoveConstraint(0)
	if len(s.Current().Query.Terms) != 1 {
		t.Errorf("terms after remove = %d", len(s.Current().Query.Terms))
	}

	// Negate the cuisine constraint: non-Greek recipes.
	s.NegateConstraint(0)
	for _, it := range s.Items()[:5] {
		if m.Graph().Has(it, recipes.PropCuisine, recipes.Cuisine("Greek")) {
			t.Errorf("%s is Greek after negation", it)
		}
	}
}

func TestSessionExcludeAndExpand(t *testing.T) {
	m := openCorpus(t, 400)
	s := m.NewSession()
	greek := query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Greek")}
	mexican := query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Mexican")}

	s.Refine(greek, blackboard.Filter)
	nGreek := len(s.Items())

	// Exclude walnut recipes (the task-1 move).
	s.Refine(query.Property{Prop: recipes.PropIngredient, Value: recipes.Ingredient("Walnuts")}, blackboard.Exclude)
	if len(s.Items()) >= nGreek {
		t.Error("exclude did not narrow")
	}
	for _, it := range s.Items() {
		if m.Graph().Has(it, recipes.PropIngredient, recipes.Ingredient("Walnuts")) {
			t.Errorf("%s still has walnuts", it)
		}
	}

	// Expand to also include Mexican recipes.
	withoutWalnuts := len(s.Items())
	s.Refine(mexican, blackboard.Expand)
	if len(s.Items()) <= withoutWalnuts {
		t.Error("expand did not broaden")
	}
}

func TestSessionBackAndHistory(t *testing.T) {
	m := openCorpus(t, 300)
	s := m.NewSession()
	s.Search("soup")
	n1 := len(s.Items())
	s.Refine(query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("French")}, blackboard.Filter)
	if !s.Back() {
		t.Fatal("Back failed")
	}
	if len(s.Items()) != n1 {
		t.Errorf("Back items = %d, want %d", len(s.Items()), n1)
	}
	// Trail: empty → soup; one more Back lands on the all-items query.
	if !s.Back() {
		t.Fatal("second Back failed")
	}
	if !s.Current().Query.IsEmpty() {
		t.Error("expected empty query at trail root")
	}
	if s.Back() {
		t.Error("Back past the root should fail")
	}
}

func TestSessionOpenItemAndApplyActions(t *testing.T) {
	m := openCorpus(t, 300)
	s := m.NewSession()
	item := m.Items()[0]
	s.OpenItem(item)
	if !s.Current().IsItem() || s.Current().Item != item {
		t.Fatal("OpenItem wrong")
	}
	if got := s.Items(); len(got) != 1 || got[0] != item {
		t.Errorf("Items on item view = %v", got)
	}

	// Apply each action kind.
	if err := s.Apply(blackboard.GoToCollection{Title: "fixed", IDs: idsOf(m.Graph(), m.Items()[:3])}); err != nil {
		t.Fatal(err)
	}
	if !s.Current().Fixed || len(s.Items()) != 3 {
		t.Error("GoToCollection failed")
	}
	if err := s.Apply(blackboard.GoToItem{Item: item}); err != nil || s.Current().Item != item {
		t.Error("GoToItem failed")
	}
	q := query.NewQuery(query.TypeIs(recipes.ClassRecipe))
	if err := s.Apply(blackboard.ReplaceQuery{Query: q}); err != nil {
		t.Fatal(err)
	}
	if s.Current().Query.Key() != q.Key() {
		t.Error("ReplaceQuery failed")
	}

	// Interactive actions return ErrNoAction.
	if err := s.Apply(blackboard.ShowSearch{}); !errors.Is(err, core.ErrNoAction) {
		t.Errorf("ShowSearch err = %v", err)
	}
	if err := s.Apply(nil); !errors.Is(err, core.ErrNoAction) {
		t.Errorf("nil action err = %v", err)
	}
}

func TestSessionApplyRangeAndSearchWithin(t *testing.T) {
	m := openCorpus(t, 300)
	s := m.NewSession()
	s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(query.TypeIs(recipes.ClassRecipe))})
	n := len(s.Items())

	min, max := 4.0, 6.0
	s.ApplyRange(recipes.PropServings, &min, &max)
	if len(s.Items()) == 0 || len(s.Items()) >= n {
		t.Errorf("range did not narrow: %d → %d", n, len(s.Items()))
	}
	for _, it := range s.Items()[:5] {
		v, _ := m.Graph().Object(it, recipes.PropServings)
		f, _ := v.(rdf.Literal).Float()
		if f < 4 || f > 6 {
			t.Errorf("%s servings %v outside range", it, f)
		}
	}

	s.SearchWithin("stew")
	for _, it := range s.Items() {
		title, _ := m.Graph().Object(it, recipes.PropTitle)
		content, _ := m.Graph().Object(it, recipes.PropContent)
		joined := strings.ToLower(title.(rdf.Literal).Lexical + " " + content.(rdf.Literal).Lexical)
		if !strings.Contains(joined, "stew") {
			t.Errorf("%s does not mention stew", it)
		}
	}
}

func TestSessionOverview(t *testing.T) {
	m := openCorpus(t, 400)
	s := m.NewSession()
	s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(query.TypeIs(recipes.ClassRecipe))})
	fs := s.Overview(5)
	if len(fs) == 0 {
		t.Fatal("no facets")
	}
	// Preferred facets (cuisine/course/method/ingredient) come first.
	if !fs[0].Preferred {
		t.Errorf("first facet %q not preferred", fs[0].Label)
	}
	for _, f := range fs {
		if len(f.Values) > 5 {
			t.Errorf("facet %q has %d values (max 5)", f.Label, len(f.Values))
		}
	}
}

func TestComposedRefinementScenario(t *testing.T) {
	// §3.3: "get recipes having an ingredient found in [a group]" — the
	// composed ingredient·group coordinate must be constraint-able.
	m := openCorpus(t, 400)
	s := m.NewSession()
	s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(query.TypeIs(recipes.ClassRecipe))})
	pred := query.PathProperty{
		Path:  []rdf.IRI{recipes.PropIngredient, recipes.PropGroup},
		Value: recipes.Group("Nuts"),
	}
	s.Refine(pred, blackboard.Exclude)
	for _, it := range s.Items()[:10] {
		for _, ing := range m.Graph().Objects(it, recipes.PropIngredient) {
			if m.Graph().Has(ing.(rdf.IRI), recipes.PropGroup, recipes.Group("Nuts")) {
				t.Fatalf("%s still has a nut ingredient %s", it, ing)
			}
		}
	}
}

func TestBaselineConfigurationLacksSimilarity(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 200, Seed: 1})
	m := core.Open(gb, core.Options{Analysts: analysts.BaselineSet})
	s := m.NewSession()
	s.OpenItem(m.Items()[0])
	board := s.Board()
	for _, sg := range board.Suggestions() {
		if sg.Analyst == "similar-by-content-item" || sg.Analyst == "contrary-constraints" {
			t.Errorf("baseline posted %s suggestion", sg.Analyst)
		}
	}
}

// TestBaselineOmitsMagnetAdvisors checks the §6.3 control system against
// the complete one on the same item: the baseline posts neither
// similarity advisor unique to Magnet, and the complete system posts both.
func TestBaselineOmitsMagnetAdvisors(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 150, Seed: 1})
	analystsOn := func(set func(*analysts.Env) []blackboard.Analyst) map[string]bool {
		m := core.Open(gb, core.Options{Analysts: set})
		s := m.NewSession()
		s.OpenItem(m.Items()[0])
		names := map[string]bool{}
		for _, sg := range s.Board().Suggestions() {
			names[sg.Analyst] = true
		}
		return names
	}
	base := analystsOn(analysts.BaselineSet)
	full := analystsOn(analysts.DefaultSet)
	for _, magnetOnly := range []string{"similar-by-content-item", "shared-property"} {
		if base[magnetOnly] {
			t.Errorf("baseline posted %s", magnetOnly)
		}
		if !full[magnetOnly] {
			t.Errorf("complete system missing %s", magnetOnly)
		}
	}
}

func TestIndexAllSubjectsOption(t *testing.T) {
	gb := rdf.NewBuilder()
	// Schemaless import: no rdf:type anywhere (the 50-states CSV case).
	gb.Add(rdf.IRI("http://e/alaska"), rdf.IRI("http://e/bird"), rdf.NewString("Willow Ptarmigan"))
	gb.Add(rdf.IRI("http://e/ohio"), rdf.IRI("http://e/bird"), rdf.NewString("Cardinal"))
	m := core.Open(gb, core.Options{IndexAllSubjects: true})
	if len(m.Items()) != 2 {
		t.Errorf("items = %v", m.Items())
	}
	// Untyped graphs fall back to all subjects even without the option.
	m2 := core.Open(gb, core.Options{})
	if len(m2.Items()) != 2 {
		t.Errorf("fallback items = %v", m2.Items())
	}
}
