package facets

import (
	"context"
	"reflect"
	"testing"

	"magnet/internal/rdf"
	"magnet/internal/schema"
)

const ex = "http://example.org/"

var (
	pCuisine    = rdf.IRI(ex + "cuisine")
	pIngredient = rdf.IRI(ex + "ingredient")
	pTitle      = rdf.DCTitle
	pArea       = rdf.IRI(ex + "area")
)

// summarizeItems summarizes a collection given as IRIs.
func summarizeItems(g *rdf.Graph, sch *schema.Store, items []rdf.IRI, opts Options) []Facet {
	return SummarizeContext(context.Background(), g, sch, g.SubjectIDsOf(items), opts)
}

func fixture() (*rdf.Graph, *schema.Store, []rdf.IRI) { return fixtureWith(nil) }

// fixtureWith is fixture with extra annotations written before the graph
// is frozen.
func fixtureWith(annotate func(*rdf.Builder)) (*rdf.Graph, *schema.Store, []rdf.IRI) {
	gb := rdf.NewBuilder()
	var items []rdf.IRI
	add := func(id, title string, cuisine rdf.IRI, area int64, ings ...rdf.IRI) {
		it := rdf.IRI(ex + id)
		items = append(items, it)
		gb.Add(it, rdf.Type, rdf.IRI(ex+"Recipe"))
		gb.Add(it, pTitle, rdf.NewString(title))
		gb.Add(it, pCuisine, cuisine)
		gb.Add(it, pArea, rdf.NewInteger(area))
		for _, ing := range ings {
			gb.Add(it, pIngredient, ing)
		}
	}
	greek, mexican := rdf.IRI(ex+"Greek"), rdf.IRI(ex+"Mexican")
	feta, olive, bean := rdf.IRI(ex+"Feta"), rdf.IRI(ex+"Olive"), rdf.IRI(ex+"Bean")
	add("r1", "Salad One", greek, 10, feta, olive)
	add("r2", "Salad Two", greek, 20, feta)
	add("r3", "Dip", greek, 30, olive)
	add("r4", "Mole", mexican, 40, bean)
	add("r5", "Tacos", mexican, 5000, bean)
	if annotate != nil {
		annotate(gb)
	}
	g := gb.Freeze()
	sch := schema.NewStore(g)
	return g, sch, items
}

func findFacet(fs []Facet, p rdf.IRI) *Facet {
	for i := range fs {
		if fs[i].Prop == p {
			return &fs[i]
		}
	}
	return nil
}

func TestSummarizeCountsAndCoverage(t *testing.T) {
	g, sch, items := fixture()
	fs := summarizeItems(g, sch, items, Options{})
	cu := findFacet(fs, pCuisine)
	if cu == nil {
		t.Fatal("cuisine facet missing")
	}
	if cu.Coverage != 5 || cu.Distinct != 2 {
		t.Errorf("cuisine coverage=%d distinct=%d", cu.Coverage, cu.Distinct)
	}
	// Values alphabetical by default: Greek, Mexican.
	if cu.Values[0].Label != "Greek" || cu.Values[0].Count != 3 {
		t.Errorf("values = %+v", cu.Values)
	}
	if cu.Values[1].Label != "Mexican" || cu.Values[1].Count != 2 {
		t.Errorf("values = %+v", cu.Values)
	}
}

func TestSummarizeSkipsAllDistinctProperties(t *testing.T) {
	g, sch, items := fixture()
	fs := summarizeItems(g, sch, items, Options{})
	if findFacet(fs, pTitle) != nil {
		t.Error("title values are all distinct; facet should be skipped")
	}
	fs = summarizeItems(g, sch, items, Options{IncludeUnshared: true})
	if findFacet(fs, pTitle) == nil {
		t.Error("IncludeUnshared should keep title")
	}
}

func TestSummarizeByCountOrder(t *testing.T) {
	g, sch, items := fixture()
	fs := summarizeItems(g, sch, items, Options{ByCount: true})
	cu := findFacet(fs, pCuisine)
	if cu.Values[0].Count < cu.Values[1].Count {
		t.Errorf("ByCount order broken: %+v", cu.Values)
	}
}

// TestSummarizeStopsOnCancelledContext checks a summary on a cancelled
// context summarizes no predicate.
func TestSummarizeStopsOnCancelledContext(t *testing.T) {
	g, sch, items := fixture()
	if fs := summarizeItems(g, sch, items, Options{}); len(fs) == 0 {
		t.Fatal("fixture has no facets")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if fs := SummarizeContext(ctx, g, sch, g.SubjectIDsOf(items), Options{}); len(fs) != 0 {
		t.Fatalf("cancelled summary returned %+v, want no facets", fs)
	}
}

func TestSummarizeMaxValuesAndMinCount(t *testing.T) {
	g, sch, items := fixture()
	fs := summarizeItems(g, sch, items, Options{MaxValues: 1})
	ing := findFacet(fs, pIngredient)
	if ing == nil {
		t.Fatal("ingredient facet missing")
	}
	if len(ing.Values) != 1 {
		t.Errorf("MaxValues: got %d values", len(ing.Values))
	}
	if ing.Distinct != 3 {
		t.Errorf("Distinct should keep full count, got %d", ing.Distinct)
	}

	fs = summarizeItems(g, sch, items, Options{MinCount: 2})
	ing = findFacet(fs, pIngredient)
	for _, v := range ing.Values {
		if v.Count < 2 {
			t.Errorf("MinCount violated: %+v", v)
		}
	}
}

func TestSummarizeHidesAnnotatedHidden(t *testing.T) {
	g, sch, items := fixtureWith(func(b *rdf.Builder) { schema.SetHidden(b, pCuisine) })
	fs := summarizeItems(g, sch, items, Options{})
	if findFacet(fs, pCuisine) != nil {
		t.Error("hidden property produced a facet")
	}
}

func TestSummarizePreferredFirst(t *testing.T) {
	// All-distinct, but preferred keeps it and ranks it first.
	g, sch, items := fixtureWith(func(b *rdf.Builder) { schema.SetFacet(b, pArea) })
	fs := summarizeItems(g, sch, items, Options{})
	if len(fs) == 0 || fs[0].Prop != pArea {
		t.Errorf("preferred facet not first: %v", fs)
	}
	if !fs[0].Preferred {
		t.Error("Preferred flag unset")
	}
}

func TestFacetLabeledFlag(t *testing.T) {
	g, sch, items := fixture()
	fs := summarizeItems(g, sch, items, Options{})
	cu := findFacet(fs, pCuisine)
	if cu.Labeled {
		t.Error("unannotated property should report Labeled=false (Figure 7)")
	}
	g, sch, items = fixtureWith(func(b *rdf.Builder) { schema.SetLabel(b, pCuisine, "Cuisine") })
	fs = summarizeItems(g, sch, items, Options{})
	cu = findFacet(fs, pCuisine)
	if !cu.Labeled || cu.Label != "Cuisine" {
		t.Errorf("labeled facet = %+v", cu)
	}
}

func TestNumericHistogram(t *testing.T) {
	g, sch, items := fixture()
	h, ok := NumericHistogram(sch, g.SubjectIDsOf(items), pArea, 5)
	if !ok {
		t.Fatal("histogram failed")
	}
	if h.Min != 10 || h.Max != 5000 || h.Count != 5 {
		t.Errorf("histogram = %+v", h)
	}
	total := 0
	for _, b := range h.Buckets {
		total += b
	}
	if total != 5 {
		t.Errorf("bucket total = %d", total)
	}
	// Max value lands in the last bucket.
	if h.Buckets[len(h.Buckets)-1] == 0 {
		t.Error("max value missing from last bucket")
	}
}

func TestNumericHistogramDegenerate(t *testing.T) {
	gb := rdf.NewBuilder()
	a, b := rdf.IRI(ex+"a"), rdf.IRI(ex+"b")
	p := rdf.IRI(ex + "n")
	gb.Add(a, p, rdf.NewInteger(7))
	gb.Add(b, p, rdf.NewInteger(7))
	g := gb.Freeze()
	sch := schema.NewStore(g)
	h, ok := NumericHistogram(sch, g.SubjectIDsOf([]rdf.IRI{a, b}), p, 4)
	if !ok || h.Buckets[0] != 2 {
		t.Errorf("degenerate histogram = %+v, %v", h, ok)
	}
	// One item only → not enough for a range.
	if _, ok := NumericHistogram(sch, g.SubjectIDsOf([]rdf.IRI{a}), p, 4); ok {
		t.Error("single item should not produce a histogram")
	}
	// Non-numeric property.
	if _, ok := NumericHistogram(sch, g.SubjectIDsOf([]rdf.IRI{a}), rdf.IRI(ex+"absent"), 4); ok {
		t.Error("absent property should not produce a histogram")
	}
}

func TestOutliersFindsAlaskaPattern(t *testing.T) {
	g, sch, items := fixture()
	// r5's 5000 dwarfs the others — the Figure 8 Alaska pattern.
	out := outliersOf(g, sch, items, pArea, 1.5)
	if !reflect.DeepEqual(out, []rdf.IRI{rdf.IRI(ex + "r5")}) {
		t.Errorf("Outliers = %v", out)
	}
	// Uniform values: no outliers.
	if out := outliersOf(g, sch, items[:3], pCuisine, 1.5); out != nil {
		t.Errorf("non-numeric outliers = %v", out)
	}
}

func TestFacetScoreOrdering(t *testing.T) {
	shared := Facet{Coverage: 10, Distinct: 2}
	unshared := Facet{Coverage: 10, Distinct: 10}
	if shared.Score() <= unshared.Score() {
		t.Error("shared-value facets should outscore all-distinct ones")
	}
	if (Facet{}).Score() != 0 {
		t.Error("empty facet score should be 0")
	}
}
