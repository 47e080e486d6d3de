// Segment equivalence: the promise of internal/segment is that a Magnet
// opened read-only from a compiled segment set is indistinguishable from
// one built in memory — byte-identical rendered output, not merely similar.
// These tests compile recipes and inbox sets into temp directories and
// replay the magnet-eval scenarios against both backings.
package magnet_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/dataload"
	"magnet/internal/datasets/inbox"
	"magnet/internal/datasets/recipes"
	"magnet/internal/facets"
	"magnet/internal/query"
	"magnet/internal/render"
)

// openBoth builds the dataset in memory and compiles + reopens it as a
// segment set, returning both Magnets. The segment set lives in a test
// temp dir; both instances are closed with the test.
func openBoth(t *testing.T, spec dataload.Spec) (mem, seg *core.Magnet) {
	t.Helper()
	g, allSubjects, err := dataload.Load(spec)
	if err != nil {
		t.Fatalf("load %s: %v", spec.Dataset, err)
	}
	mem = core.Open(g, core.Options{IndexAllSubjects: allSubjects})
	t.Cleanup(mem.Close)

	dir := t.TempDir()
	man, err := mem.WriteSegments(dir, spec.Name(), spec.Params())
	if err != nil {
		t.Fatalf("WriteSegments: %v", err)
	}
	if man.Dataset != spec.Name() {
		t.Fatalf("manifest dataset = %q, want %q", man.Dataset, spec.Name())
	}
	seg, err = core.OpenSegments(dir, core.Options{})
	if err != nil {
		t.Fatalf("OpenSegments: %v", err)
	}
	t.Cleanup(seg.Close)
	if err := seg.Segments().Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return mem, seg
}

// renderScenario runs one navigation and renders everything the eval
// figures render: the pane, the item collection, and the facet overview.
func renderScenario(m *core.Magnet, q query.Query) string {
	var buf bytes.Buffer
	s := m.NewSession()
	if err := s.Apply(blackboard.ReplaceQuery{Query: q}); err != nil {
		return "apply error: " + err.Error()
	}
	render.Pane(&buf, s.Pane(), false)
	buf.WriteByte('\n')
	render.Collection(&buf, m.Graph(), s.Items(), 8)
	buf.WriteByte('\n')
	render.Overview(&buf, s.Overview(6), len(s.Items()))
	return buf.String()
}

func TestSegmentEquivalenceRecipes(t *testing.T) {
	mem, seg := openBoth(t, dataload.Spec{Dataset: "recipes", Recipes: 200, Seed: 1})

	queries := map[string]query.Query{
		// Figure 1: refined pane.
		"fig1": query.NewQuery(
			query.TypeIs(recipes.ClassRecipe),
			query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Greek")},
			query.Property{Prop: recipes.PropIngredient, Value: recipes.Ingredient("Parsley")},
		),
		// Figure 2: unrefined overview of the whole collection.
		"fig2": query.NewQuery(query.TypeIs(recipes.ClassRecipe)),
		// Keyword scoring combined with Not: text-index postings and the
		// lazy complement over the item universe on both backings.
		"negation": query.NewQuery(
			query.Keyword{Text: "chicken"},
			query.Not{P: query.Property{
				Prop:  recipes.PropIngredient,
				Value: recipes.Ingredient("Walnuts"),
			}},
		),
	}
	for name, q := range queries {
		want := renderScenario(mem, q)
		got := renderScenario(seg, q)
		if got != want {
			t.Errorf("%s: segment-backed render differs from in-memory\n%s", name, firstDiff(want, got))
		}
	}
	if mem.NumItems() != seg.NumItems() {
		t.Errorf("NumItems: mem=%d seg=%d", mem.NumItems(), seg.NumItems())
	}
}

func TestSegmentEquivalenceInbox(t *testing.T) {
	mem, seg := openBoth(t, dataload.Spec{Dataset: "inbox"})

	q := query.NewQuery(query.Or{Ps: []query.Predicate{
		query.TypeIs(inbox.ClassMessage), query.TypeIs(inbox.ClassNewsItem),
	}})
	want := renderScenario(mem, q)
	got := renderScenario(seg, q)
	if got != want {
		t.Errorf("fig6: segment-backed render differs from in-memory\n%s", firstDiff(want, got))
	}

	// Figure 5's range widget: histogram over the sent date.
	renderHist := func(m *core.Magnet) string {
		var buf bytes.Buffer
		s := m.NewSession()
		if err := s.Apply(blackboard.ReplaceQuery{Query: q}); err != nil {
			t.Fatalf("apply: %v", err)
		}
		h, ok := facets.NumericHistogram(m.Graph(), s.Current().IDs, inbox.PropSent, 24)
		if !ok {
			t.Fatal("no sent-date histogram")
		}
		render.Histogram(&buf, "sent", h)
		span := h.Max - h.Min
		lo, hi := h.Min+span/3, h.Min+2*span/3
		s.ApplyRange(inbox.PropSent, &lo, &hi)
		render.Collection(&buf, m.Graph(), s.Items(), 8)
		return buf.String()
	}
	if want, got := renderHist(mem), renderHist(seg); got != want {
		t.Errorf("fig5: segment-backed render differs from in-memory\n%s", firstDiff(want, got))
	}
}

// firstDiff locates the first differing line of two renders, with context.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  mem: %s\n  seg: %s", i+1, w, g)
		}
	}
	return "(lengths differ only)"
}
