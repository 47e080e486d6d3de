package analysts_test

import (
	"fmt"
	"strings"
	"testing"

	"magnet/internal/analysts"
	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/query"
	"magnet/internal/rdf"
)

func session(t *testing.T, n int) (*core.Magnet, *core.Session) {
	t.Helper()
	gb := recipes.Build(recipes.Config{Recipes: n, Seed: 1})
	m := core.Open(gb, core.Options{})
	return m, m.NewSession()
}

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

func suggestionsOf(b *blackboard.Board, analyst string) []blackboard.Suggestion {
	var out []blackboard.Suggestion
	for _, s := range b.Suggestions() {
		if s.Analyst == analyst {
			out = append(out, s)
		}
	}
	return out
}

func greekCollection(s *core.Session) {
	s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(
		query.TypeIs(recipes.ClassRecipe),
		query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Greek")},
	)})
}

func TestRefinementSuggestsPropertyValues(t *testing.T) {
	_, s := session(t, 500)
	greekCollection(s)
	board := s.Board()
	refines := suggestionsOf(board, "query-refinement")
	if len(refines) == 0 {
		t.Fatal("no refinement suggestions")
	}
	n := len(s.Items())
	sawObject, sawWord := false, false
	for _, sg := range refines {
		r, ok := sg.Action.(blackboard.Refine)
		if !ok {
			t.Fatalf("refinement suggestion carries %T", sg.Action)
		}
		switch p := r.Add.(type) {
		case query.Property:
			sawObject = true
			// Detail is "k of n" with 0 < k < n.
			if sg.Detail == "" || strings.HasPrefix(sg.Detail, "0 of") {
				t.Errorf("bad detail %q for %v", sg.Detail, p)
			}
		case query.PathProperty:
			sawObject = true
		case query.TermMatch:
			sawWord = true
			if p.Display == "" {
				t.Errorf("term suggestion missing display form")
			}
		}
		if sg.Weight <= 0 || sg.Weight > 1+1e-9 {
			t.Errorf("weight out of scale: %v", sg.Weight)
		}
	}
	if !sawObject || !sawWord {
		t.Errorf("expected both object and word refinements: object=%v word=%v", sawObject, sawWord)
	}
	_ = n
}

func TestRefinementSuggestsComposedGroup(t *testing.T) {
	// The ingredient property carries the compose annotation, so
	// "ingredient · group" refinements (dairy, vegetables, ...) appear —
	// the §3.3 compound refinement building blocks.
	_, s := session(t, 500)
	greekCollection(s)
	found := false
	n := len(s.Items())
	for _, sg := range suggestionsOf(s.Board(), "query-refinement") {
		if r, ok := sg.Action.(blackboard.Refine); ok {
			if pp, ok := r.Add.(query.PathProperty); ok && len(pp.Path) == 2 &&
				pp.Path[0] == recipes.PropIngredient && pp.Path[1] == recipes.PropGroup {
				found = true
				// Composed suggestions carry real member counts and are
				// genuine refinements: 0 < k < n.
				var k, total int
				if _, err := fmt.Sscanf(sg.Detail, "%d of %d", &k, &total); err != nil {
					t.Fatalf("composed detail %q unparseable: %v", sg.Detail, err)
				}
				if total != n || k <= 0 || k >= n {
					t.Errorf("composed suggestion count %d of %d (collection %d)", k, total, n)
				}
			}
		}
	}
	if !found {
		t.Error("no composed ingredient·group refinement suggested")
	}
}

func TestRefinementAppliedNarrowsCollection(t *testing.T) {
	_, s := session(t, 500)
	greekCollection(s)
	before := len(s.Items())
	var applied bool
	for _, sg := range suggestionsOf(s.Board(), "query-refinement") {
		if r, ok := sg.Action.(blackboard.Refine); ok {
			if _, isProp := r.Add.(query.Property); isProp {
				if err := s.Apply(sg.Action); err != nil {
					t.Fatal(err)
				}
				applied = true
				break
			}
		}
	}
	if !applied {
		t.Fatal("no applicable property refinement")
	}
	after := len(s.Items())
	if after == 0 || after >= before {
		t.Errorf("refinement %d → %d items; want strictly narrower and non-empty", before, after)
	}
}

func TestSharedPropertyOnItem(t *testing.T) {
	m, s := session(t, 300)
	s.OpenItem(m.Items()[100])
	shared := suggestionsOf(s.Board(), "shared-property")
	if len(shared) == 0 {
		t.Fatal("no shared-property suggestions")
	}
	for _, sg := range shared {
		rq, ok := sg.Action.(blackboard.ReplaceQuery)
		if !ok {
			t.Fatalf("shared suggestion carries %T", sg.Action)
		}
		if err := s.Apply(sg.Action); err != nil {
			t.Fatal(err)
		}
		if len(s.Items()) < 2 {
			t.Errorf("shared-property collection %v has %d items; sharing means ≥ 2",
				rq.Query.Describe(nil), len(s.Items()))
		}
		s.OpenItem(m.Items()[100])
	}
}

func TestSimilarItemAnalyst(t *testing.T) {
	m, s := session(t, 300)
	recipesOnly := m.Graph().SubjectsOfType(recipes.ClassRecipe)
	item := recipesOnly[0]
	s.OpenItem(item)
	sims := suggestionsOf(s.Board(), "similar-by-content-item")
	if len(sims) != 1 {
		t.Fatalf("similar suggestions = %d", len(sims))
	}
	act := sims[0].Action.(blackboard.GoToCollection)
	if len(act.IDs) == 0 {
		t.Fatal("no similar items")
	}
	g := m.Graph()
	similar := g.SubjectsFromIDs(act.IDs)
	for _, other := range similar {
		if other == item {
			t.Error("item itself in similar list")
		}
	}
	// Top similar shares structure: same cuisine or an overlapping
	// ingredient (sanity of the fuzzy match).
	top := similar[0]
	cuisine, _ := g.Object(item, recipes.PropCuisine)
	shares := g.Has(top, recipes.PropCuisine, cuisine)
	for _, ing := range g.Objects(item, recipes.PropIngredient) {
		if g.Has(top, recipes.PropIngredient, ing) {
			shares = true
		}
	}
	if !shares {
		t.Errorf("top similar %s shares nothing obvious with %s", top, item)
	}
}

func TestSimilarCollectionAnalyst(t *testing.T) {
	m, s := session(t, 300)
	greekCollection(s)
	members := map[rdf.IRI]bool{}
	for _, it := range s.Items() {
		members[it] = true
	}
	sims := suggestionsOf(s.Board(), "similar-by-content-collection")
	if len(sims) != 1 {
		t.Fatalf("collection-similar suggestions = %d", len(sims))
	}
	act := sims[0].Action.(blackboard.GoToCollection)
	for _, it := range m.Graph().SubjectsFromIDs(act.IDs) {
		if members[it] {
			t.Errorf("member %s suggested as 'more like these'", it)
		}
	}
}

func TestContraryAnalyst(t *testing.T) {
	m, s := session(t, 300)
	greekCollection(s)
	contraries := suggestionsOf(s.Board(), "contrary-constraints")
	if len(contraries) != 2 { // one per constraint
		t.Fatalf("contrary suggestions = %d", len(contraries))
	}
	sawNegatedCuisine := false
	for _, sg := range contraries {
		if _, ok := sg.Action.(blackboard.ReplaceQuery); !ok {
			t.Fatalf("contrary suggestion carries %T", sg.Action)
		}
		if strings.Contains(sg.Title, "NOT") && strings.Contains(sg.Title, "Greek") {
			sawNegatedCuisine = true
			s.Apply(sg.Action)
			for _, it := range s.Items()[:5] {
				if m.Graph().Has(it, recipes.PropCuisine, recipes.Cuisine("Greek")) {
					t.Error("negated collection still Greek")
				}
			}
		}
	}
	if !sawNegatedCuisine {
		t.Error("no negated-cuisine contrary")
	}
}

func TestRangeWidgetAnalyst(t *testing.T) {
	_, s := session(t, 300)
	greekCollection(s)
	ranges := suggestionsOf(s.Board(), "numeric-range")
	props := map[rdf.IRI]bool{}
	for _, sg := range ranges {
		act, ok := sg.Action.(blackboard.ShowRange)
		if !ok {
			t.Fatalf("range suggestion carries %T", sg.Action)
		}
		props[act.Prop] = true
		if act.Histogram.Count < 2 {
			t.Errorf("histogram count = %d", act.Histogram.Count)
		}
	}
	if !props[recipes.PropServings] || !props[recipes.PropPrepTime] {
		t.Errorf("expected servings and prep-time ranges, got %v", props)
	}
}

func TestSearchWithinAnalyst(t *testing.T) {
	_, s := session(t, 200)
	greekCollection(s)
	sw := suggestionsOf(s.Board(), "search-within")
	if len(sw) != 1 {
		t.Fatalf("search-within = %d", len(sw))
	}
	if _, ok := sw[0].Action.(blackboard.ShowSearch); !ok {
		t.Errorf("action = %T", sw[0].Action)
	}
	if sw[0].Advisor != blackboard.AdvisorQuery {
		t.Errorf("advisor = %s", sw[0].Advisor)
	}
}

func TestHistoryAnalystPreviousAndTrail(t *testing.T) {
	m, s := session(t, 200)
	greekCollection(s)
	s.OpenItem(m.Items()[0])
	s.GoHome()
	hist := suggestionsOf(s.Board(), "history")
	var prev, trail int
	for _, sg := range hist {
		switch sg.Group {
		case "Previous":
			prev++
		case "Refinement":
			trail++
		}
	}
	if prev == 0 {
		t.Error("no Previous suggestions")
	}
	if trail == 0 {
		t.Error("no Refinement-trail suggestions")
	}
}

func TestSimilarByVisitLearnsTransitions(t *testing.T) {
	m, s := session(t, 200)
	a, b := m.Items()[0], m.Items()[1]
	// Teach: from a the user repeatedly goes to b.
	for i := 0; i < 3; i++ {
		s.OpenItem(a)
		s.OpenItem(b)
	}
	s.OpenItem(a)
	visits := suggestionsOf(s.Board(), "similar-by-visit")
	if len(visits) == 0 {
		t.Fatal("no similar-by-visit suggestions")
	}
	act, ok := visits[0].Action.(blackboard.GoToItem)
	if !ok || act.Item != b {
		t.Errorf("top visit suggestion = %+v, want GoToItem(b)", visits[0])
	}
	if !strings.Contains(visits[0].Detail, "3") {
		t.Errorf("detail %q should carry the count", visits[0].Detail)
	}
}

func TestDropConstraintOnEmptyResults(t *testing.T) {
	_, s := session(t, 300)
	// Contradictory query: Greek AND Mexican.
	s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(
		query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Greek")},
		query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Mexican")},
	)})
	if len(s.Items()) != 0 {
		t.Fatal("precondition: contradictory query should be empty")
	}
	drops := suggestionsOf(s.Board(), "drop-constraint")
	if len(drops) != 2 {
		t.Fatalf("drop suggestions = %d, want one per constraint", len(drops))
	}
	// Most recent constraint is the top-weighted drop candidate.
	if drops[0].Weight < drops[1].Weight {
		t.Error("later constraints should weigh more")
	}
	if err := s.Apply(drops[0].Action); err != nil {
		t.Fatal(err)
	}
	if len(s.Items()) == 0 {
		t.Error("dropping a constraint should recover results")
	}
	// Non-empty collections must not trigger the analyst.
	if got := suggestionsOf(s.Board(), "drop-constraint"); got != nil {
		t.Errorf("drop analyst fired on non-empty collection: %v", got)
	}
}

func TestOverviewHintReactsToCrowdedPane(t *testing.T) {
	m, s := session(t, 500)
	s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(query.TypeIs(recipes.ClassRecipe))})
	hints := suggestionsOf(s.Board(), "overview-hint")
	if len(hints) != 1 {
		t.Fatalf("overview hints = %d (pane should be crowded on the full corpus)", len(hints))
	}
	if _, ok := hints[0].Action.(blackboard.ShowOverview); !ok {
		t.Errorf("hint action = %T", hints[0].Action)
	}
	// A collection of property-poor items (ingredient groups carry only a
	// type and a label) offers few refinement axes and gets no hint.
	groups := []rdf.IRI{recipes.Group("Nuts"), recipes.Group("Dairy"), recipes.Group("Legumes")}
	s.Apply(blackboard.GoToCollection{Title: "groups", IDs: idsOf(m.Graph(), groups)})
	if s.Current().Len() != len(groups) {
		t.Fatalf("group collection holds %d of %d groups", s.Current().Len(), len(groups))
	}
	if got := suggestionsOf(s.Board(), "overview-hint"); got != nil {
		t.Errorf("hint on sparse collection: %v", got)
	}
}

func TestDefaultAndBaselineSets(t *testing.T) {
	env := &analysts.Env{}
	def := analysts.DefaultSet(env)
	base := analysts.BaselineSet(env)
	if len(def) <= len(base) {
		t.Errorf("default (%d) should have more analysts than baseline (%d)", len(def), len(base))
	}
	names := map[string]bool{}
	for _, a := range def {
		if names[a.Name()] {
			t.Errorf("duplicate analyst name %q", a.Name())
		}
		names[a.Name()] = true
	}
	for _, want := range []string{"query-refinement", "similar-by-content-item",
		"contrary-constraints", "numeric-range", "history"} {
		if !names[want] {
			t.Errorf("default set missing %q", want)
		}
	}
}
