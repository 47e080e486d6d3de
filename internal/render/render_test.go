package render

import (
	"strings"
	"testing"

	"magnet/internal/advisors"
	"magnet/internal/blackboard"
	"magnet/internal/facets"
	"magnet/internal/rdf"
	"magnet/internal/schema"
)

func TestPaneRendering(t *testing.T) {
	p := advisors.Pane{
		Constraints: []string{"cuisine = Greek", "ingredient = Parsley"},
		Sections: []advisors.Section{
			{
				Advisor: blackboard.AdvisorRefine,
				Groups: []advisors.Group{
					{
						Title: "cooking method",
						Suggestions: []blackboard.Suggestion{
							{Title: "Bake", Detail: "12 of 40"},
							{Title: "Grill"},
						},
						Omitted: 3,
					},
				},
				OmittedGroups: 1,
			},
		},
	}
	var b strings.Builder
	Pane(&b, p, true)
	out := b.String()
	for _, want := range []string{
		"cuisine = Greek", "✕ remove", "── Refine Collections ──",
		"cooking method:", "1. Bake  (12 of 40)", "2. Grill",
		"... 3 more", "... 1 more groups",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("pane output missing %q:\n%s", want, out)
		}
	}
	// Unnumbered mode.
	b.Reset()
	Pane(&b, p, false)
	if strings.Contains(b.String(), "1. Bake") {
		t.Error("unnumbered pane should not carry ordinals")
	}
	// Empty query.
	b.Reset()
	Pane(&b, advisors.Pane{}, false)
	if !strings.Contains(b.String(), "(all items)") {
		t.Error("empty query marker missing")
	}
}

func TestOverviewRendering(t *testing.T) {
	fs := []facets.Facet{
		{
			Prop: rdf.IRI("http://e/cuisine"), Label: "cuisine", Labeled: true,
			Distinct: 3, Coverage: 40,
			Values: []facets.Value{{Label: "Greek", Count: 25}, {Label: "Thai", Count: 10}},
		},
		{
			Prop: rdf.IRI("http://e/raw"), Label: "raw", Labeled: false,
			Distinct: 1, Coverage: 5,
			Values: []facets.Value{{Label: "x", Count: 5}},
		},
	}
	var b strings.Builder
	Overview(&b, fs, 40)
	out := b.String()
	if !strings.Contains(out, "cuisine  (3 values, 40 items)") {
		t.Errorf("facet header missing:\n%s", out)
	}
	if !strings.Contains(out, "Greek") || !strings.Contains(out, "25") {
		t.Error("value row missing")
	}
	if !strings.Contains(out, "... 1 more values") {
		t.Error("more-values affordance missing")
	}
	// Unlabeled facets display the raw identifier (Figure 7).
	if !strings.Contains(out, "http://e/raw") {
		t.Error("unlabeled facet should show raw IRI")
	}
	if !strings.Contains(out, "▪") {
		t.Error("bars missing")
	}
}

func TestItemAndCollectionRendering(t *testing.T) {
	gb := rdf.NewBuilder()
	it := rdf.IRI("http://e/r1")
	gb.Add(it, rdf.Label, rdf.NewString("Apple Cobbler Cake"))
	gb.Add(it, rdf.IRI("http://e/ingredient"), rdf.IRI("http://e/Apple"))
	gb.Add(rdf.IRI("http://e/Apple"), rdf.Label, rdf.NewString("Apples"))
	schema.SetLabel(gb, rdf.IRI("http://e/ingredient"), "ingredient")

	var b strings.Builder
	g := gb.Freeze()
	Item(&b, g, it)
	out := b.String()
	for _, want := range []string{"Apple Cobbler Cake", "ingredient", "Apples"} {
		if !strings.Contains(out, want) {
			t.Errorf("item card missing %q:\n%s", want, out)
		}
	}

	b.Reset()
	Collection(&b, g, []rdf.IRI{it, "http://e/r2", "http://e/r3"}, 2)
	out = b.String()
	if !strings.Contains(out, "3 items") || !strings.Contains(out, "... 1 more") {
		t.Errorf("collection listing wrong:\n%s", out)
	}
}

func TestHistogramRendering(t *testing.T) {
	h := facets.Histogram{Min: 0, Max: 100, Count: 10, Buckets: []int{5, 0, 2, 3}}
	var b strings.Builder
	Histogram(&b, "sent date", h)
	out := b.String()
	if !strings.Contains(out, "sent date: 0 — 100  (10 items)") {
		t.Errorf("header wrong:\n%s", out)
	}
	if !strings.Contains(out, "◄[") || !strings.Contains(out, "]►") {
		t.Error("slider ends missing")
	}
	// Dense bucket renders darker than empty bucket.
	marks := out[strings.Index(out, "◄[")+len("◄[") : strings.Index(out, "]►")]
	if !strings.ContainsRune(marks, '#') || !strings.ContainsRune(marks, ' ') {
		t.Errorf("hatch levels wrong: %q", marks)
	}
}

func TestClip(t *testing.T) {
	if got := clip("short", 10); got != "short" {
		t.Errorf("clip = %q", got)
	}
	if got := clip("a very long label indeed", 10); len([]rune(got)) != 10 || !strings.HasSuffix(got, "…") {
		t.Errorf("clip = %q", got)
	}
}
