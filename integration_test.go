// Integration tests: full user journeys across every module, from raw data
// to rendered panes — the paths the paper's walkthrough (§3) and evaluation
// (§6) describe, stitched end to end.
package magnet_test

import (
	"bytes"
	"strings"
	"testing"

	"magnet/internal/annotate"
	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/inbox"
	"magnet/internal/datasets/recipes"
	"magnet/internal/datasets/states"
	"magnet/internal/query"
	"magnet/internal/rdf"
	"magnet/internal/render"
	"magnet/internal/xmlconv"
)

// TestJourneyRecipes walks the paper's §3 interface story: keyword search →
// facet refinement → similar items → group exclusion → history undo.
func TestJourneyRecipes(t *testing.T) {
	m := recipeMagnet() // shared bench fixture, 2000 recipes
	s := m.NewSession()

	// §3.1: "a search may often be initiated by specifying keywords".
	s.Search("walnut")
	if len(s.Items()) == 0 {
		t.Fatal("keyword search empty")
	}

	// Refine by cuisine from an actual pane suggestion.
	pane := s.Pane()
	var refined bool
	for _, sg := range pane.AllSuggestions() {
		act, ok := sg.Action.(blackboard.Refine)
		if !ok {
			continue
		}
		if p, ok := act.Add.(query.Property); ok && p.Prop == recipes.PropCuisine {
			before := len(s.Items())
			if err := s.Apply(sg.Action); err != nil {
				t.Fatal(err)
			}
			if len(s.Items()) == 0 || len(s.Items()) >= before {
				t.Fatalf("cuisine refinement %d → %d", before, len(s.Items()))
			}
			refined = true
			break
		}
	}
	if !refined {
		t.Fatal("no cuisine suggestion offered")
	}

	// Open an item, follow Similar by Content, exclude the nut group.
	item := s.Items()[0]
	s.OpenItem(item)
	var sim blackboard.Suggestion
	for _, sg := range s.Pane().AllSuggestions() {
		if sg.Title == "Overall (textual and structural)" {
			sim = sg
			break
		}
	}
	if sim.Action == nil {
		t.Fatal("similar-by-content suggestion missing")
	}
	if err := s.Apply(sim.Action); err != nil {
		t.Fatal(err)
	}
	if !s.Current().Fixed {
		t.Fatal("similar items should be a fixed collection")
	}
	s.Refine(query.PathProperty{
		Path:  []rdf.IRI{recipes.PropIngredient, recipes.PropGroup},
		Value: recipes.Group("Nuts"),
	}, blackboard.Exclude)
	for _, it := range s.Items() {
		for _, ing := range m.Graph().Objects(it, recipes.PropIngredient) {
			if m.Graph().Has(ing.(rdf.IRI), recipes.PropGroup, recipes.Group("Nuts")) {
				t.Fatalf("%s still nutty", it)
			}
		}
	}

	// History knows where we've been: the history analyst offers the
	// earlier views.
	var previous int
	for _, sg := range s.Board().Suggestions() {
		if sg.Analyst == "history" {
			previous++
		}
	}
	if previous < 3 {
		t.Errorf("history offers %d earlier views, want at least 3", previous)
	}

	// The pane renders without error and mentions the advisors.
	var buf bytes.Buffer
	render.Pane(&buf, s.Pane(), true)
	if !strings.Contains(buf.String(), "──") {
		t.Error("rendered pane missing advisor sections")
	}
}

// TestJourneyStatesAutoAnnotate goes raw CSV → automatic annotations →
// range navigation, the E6+E13 path end to end.
func TestJourneyStatesAutoAnnotate(t *testing.T) {
	gb, err := states.Build()
	if err != nil {
		t.Fatal(err)
	}
	annotate.Apply(gb, annotate.Advise(gb.Freeze(), annotate.Config{}))
	m := core.Open(gb, core.Options{IndexAllSubjects: true})
	s := m.NewSession()

	// The 'cardinal' refinement still works post-annotation.
	found := false
	for _, sg := range s.Board().Suggestions() {
		if act, ok := sg.Action.(blackboard.Refine); ok {
			if tm, ok := act.Add.(query.TermMatch); ok && tm.Display == "cardinal" {
				s.Apply(sg.Action)
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("cardinal suggestion missing")
	}
	if len(s.Items()) != 7 {
		t.Fatalf("cardinal states = %d", len(s.Items()))
	}

	// Numeric range over the auto-typed area column.
	s.GoHome()
	lo := 100000.0
	s.ApplyRange(states.PropArea, &lo, nil)
	if len(s.Items()) == 0 || len(s.Items()) >= 50 {
		t.Fatalf("big states = %d", len(s.Items()))
	}
	for _, it := range s.Items() {
		o, _ := m.Graph().Object(it, states.PropArea)
		if f, _ := o.(rdf.Literal).Float(); f < 100000 {
			t.Errorf("%s area %v below bound", it, f)
		}
	}
}

// TestJourneyInboxComposition exercises Figure 6 end to end: composed
// body·creator refinement through an actual suggestion.
func TestJourneyInboxComposition(t *testing.T) {
	gb := inbox.Build(inbox.Config{})
	m := core.Open(gb, core.Options{})
	s := m.NewSession()
	s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(query.Or{Ps: []query.Predicate{
		query.TypeIs(inbox.ClassMessage), query.TypeIs(inbox.ClassNewsItem),
	}})})
	before := len(s.Items())

	var applied bool
	for _, sg := range s.Board().Suggestions() {
		act, ok := sg.Action.(blackboard.Refine)
		if !ok {
			continue
		}
		pp, ok := act.Add.(query.PathProperty)
		if !ok || len(pp.Path) != 2 || pp.Path[0] != inbox.PropBody || pp.Path[1] != inbox.PropCreator {
			continue
		}
		if err := s.Apply(sg.Action); err != nil {
			t.Fatal(err)
		}
		// Every remaining mail's body was created by the suggested person.
		for _, it := range s.Items() {
			body, _ := m.Graph().Object(it, inbox.PropBody)
			if !m.Graph().Has(body.(rdf.IRI), inbox.PropCreator, pp.Value) {
				t.Fatalf("%s body creator mismatch", it)
			}
		}
		applied = true
		break
	}
	if !applied {
		t.Fatal("no composed body·creator suggestion")
	}
	if len(s.Items()) == 0 || len(s.Items()) >= before {
		t.Fatalf("composition refinement %d → %d", before, len(s.Items()))
	}
}

// TestJourneyNTriplesRoundTrip serializes a dataset, re-reads it, and
// verifies navigation still works identically (persistence path).
func TestJourneyNTriplesRoundTrip(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 120, Seed: 1})
	var buf bytes.Buffer
	g := gb.Freeze()
	if err := rdf.WriteNTriples(g, &buf); err != nil {
		t.Fatal(err)
	}
	g2, err := rdf.ReadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Len() != g.Len() {
		t.Fatalf("round trip %d → %d triples", g.Len(), g2.Len())
	}
	m1 := core.Open(gb, core.Options{})
	m2 := core.Open(g2, core.Options{})
	q := query.NewQuery(
		query.TypeIs(recipes.ClassRecipe),
		query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Italian")},
	)
	a := m1.Graph().SubjectsFromIDs(evaluate(engineOf(m1), q).Slice())
	b := m2.Graph().SubjectsFromIDs(evaluate(engineOf(m2), q).Slice())
	if len(a) != len(b) {
		t.Fatalf("query results differ after round trip: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("item %d differs: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestJourneyXMLNavigation converts a small XML document and navigates the
// resulting tree-shaped graph with composed suggestions.
func TestJourneyXMLNavigation(t *testing.T) {
	doc := `<library>
  <book genre="fiction"><title>The Turn of the Screw</title><author><name>Henry James</name></author></book>
  <book genre="fiction"><title>The Portrait of a Lady</title><author><name>Henry James</name></author></book>
  <book genre="cyberpunk"><title>Neuromancer</title><author><name>William Gibson</name></author></book>
</library>`
	const ns = "http://e/xml#"
	g := rdf.NewBuilder()
	if _, err := xmlconv.Convert(g, strings.NewReader(doc), xmlconv.Options{NS: ns}); err != nil {
		t.Fatal(err)
	}
	m := core.Open(g, core.Options{})
	s := m.NewSession()
	s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(
		query.TypeIs(xmlconv.ElementClass(ns, "book")))})
	if len(s.Items()) != 3 {
		t.Fatalf("books = %d", len(s.Items()))
	}
	// The genre attribute (a string) surfaces as a word-term refinement; a
	// composed coordinate exists because XML conversion marks the graph
	// tree-shaped.
	var genreSg blackboard.Suggestion
	var sawGenre, sawComposed bool
	for _, sg := range s.Board().Suggestions() {
		if act, ok := sg.Action.(blackboard.Refine); ok {
			switch p := act.Add.(type) {
			case query.TermMatch:
				if p.Field == string(xmlconv.Prop(ns, "genre")) && p.Display == "fiction" {
					sawGenre, genreSg = true, sg
				}
			case query.PathProperty:
				if len(p.Path) >= 2 {
					sawComposed = true
				}
			}
		}
	}
	if !sawGenre {
		t.Fatal("genre word refinement missing")
	}
	if !sawComposed {
		t.Error("composed refinement missing on tree-shaped data")
	}
	// Applying the genre suggestion narrows to the two fiction books.
	if err := s.Apply(genreSg.Action); err != nil {
		t.Fatal(err)
	}
	if len(s.Items()) != 2 {
		t.Errorf("fiction books = %d, want 2", len(s.Items()))
	}
}

// TestJourneySessionIsolation: two sessions over one Magnet do not leak
// state into each other.
func TestJourneySessionIsolation(t *testing.T) {
	m := recipeMagnet()
	s1 := m.NewSession()
	s2 := m.NewSession()
	s1.Search("walnut")
	if len(s2.Items()) != len(m.Items()) {
		t.Error("session 2 saw session 1's query")
	}
	s2.OpenItem(m.Items()[0])
	if s1.Current().IsItem() {
		t.Error("session 1 saw session 2's navigation")
	}
	if s1.Current().Key() == s2.Current().Key() {
		t.Error("sessions share current view")
	}
}
