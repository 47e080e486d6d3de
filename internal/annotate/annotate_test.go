package annotate

import (
	"strings"
	"testing"

	"magnet/internal/datasets/courses"
	"magnet/internal/datasets/recipes"
	"magnet/internal/datasets/states"
	"magnet/internal/rdf"
	"magnet/internal/schema"
)

func proposalsFor(ps []Proposal, kind Kind, prop rdf.IRI) []Proposal {
	var out []Proposal
	for _, p := range ps {
		if p.Kind == kind && p.Prop == prop {
			out = append(out, p)
		}
	}
	return out
}

// The Figure 7 → Figure 8 upgrade, automated: the advisor should propose
// integer value types for the stringly area and admission columns, and
// labels for every property.
func TestAdviseStatesDataset(t *testing.T) {
	b, err := states.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := b.Freeze()
	ps := Advise(g, Config{})

	area := proposalsFor(ps, ValueType, states.PropArea)
	if len(area) != 1 || area[0].ValueType != schema.Integer {
		t.Fatalf("area proposals = %+v", area)
	}
	if area[0].Confidence < 0.95 {
		t.Errorf("area confidence = %v", area[0].Confidence)
	}
	admitted := proposalsFor(ps, ValueType, states.PropAdmitted)
	if len(admitted) != 1 || admitted[0].ValueType != schema.Integer {
		t.Errorf("admitted proposals = %+v", admitted)
	}
	// Bird names are human text: no value-type or hide proposals.
	if got := proposalsFor(ps, ValueType, states.PropBird); got != nil {
		t.Errorf("bird value-type proposals = %+v", got)
	}
	if got := proposalsFor(ps, Hide, states.PropBird); got != nil {
		t.Errorf("bird hide proposals = %+v", got)
	}
	// Labels proposed for unlabeled properties.
	if got := proposalsFor(ps, Label, states.PropBird); len(got) != 1 {
		t.Errorf("bird label proposals = %+v", got)
	}
}

func TestApplyUpgradesStates(t *testing.T) {
	b, err := states.Build()
	if err != nil {
		t.Fatal(err)
	}
	Apply(b, Advise(b.Freeze(), Config{}))
	g := b.Freeze()
	sch := schema.NewStore(g)
	if sch.ValueType(states.PropArea) != schema.Integer {
		t.Error("area not integer after Apply")
	}
	if !sch.HasLabel(states.PropBird) {
		t.Error("bird not labeled after Apply")
	}
	// Numeric properties now power range widgets.
	found := false
	for _, p := range sch.NumericProperties() {
		if p == states.PropArea {
			found = true
		}
	}
	if !found {
		t.Error("area missing from NumericProperties")
	}
}

// The §6.1 OCW problem, automated: the opaque catalog key should be
// proposed hidden; the human-readable columns should not.
func TestAdviseHidesOpaqueCatalogKey(t *testing.T) {
	g := courses.Build(courses.Config{}).Freeze()
	ps := Advise(g, Config{})
	if got := proposalsFor(ps, Hide, courses.PropCatalogKey); len(got) != 1 {
		t.Fatalf("catalog key hide proposals = %+v", got)
	}
	for _, p := range []rdf.IRI{courses.PropDept, courses.PropInstructor, courses.PropAbout} {
		if got := proposalsFor(ps, Hide, p); got != nil {
			t.Errorf("%s should not be hidden: %+v", p.LocalName(), got)
		}
	}
}

// Composition inference: the recipe ingredient property (resource values
// with informative targets) should be proposed composable on an
// unannotated corpus.
func TestAdviseComposeAndFacets(t *testing.T) {
	g := recipes.Build(recipes.Config{Recipes: 300, SkipAnnotations: true}).Freeze()
	ps := Advise(g, Config{})
	if got := proposalsFor(ps, Compose, recipes.PropIngredient); len(got) != 1 {
		t.Errorf("ingredient compose proposals = %+v", got)
	}
	if got := proposalsFor(ps, Facet, recipes.PropCuisine); len(got) != 1 {
		t.Errorf("cuisine facet proposals = %+v", got)
	}
	// Title is all-distinct: not a facet.
	if got := proposalsFor(ps, Facet, recipes.PropTitle); got != nil {
		t.Errorf("title facet proposals = %+v", got)
	}
	// Servings (typed integers) should get... nothing: typed literals are
	// already effective integers via inference; advisor still proposes the
	// explicit annotation since AnnotatedValueType is empty.
	if got := proposalsFor(ps, ValueType, recipes.PropServings); len(got) != 1 {
		t.Errorf("servings value-type proposals = %+v", got)
	}
}

func TestAdviseSkipsAnnotated(t *testing.T) {
	b, err := states.Build()
	if err != nil {
		t.Fatal(err)
	}
	states.Annotate(b)
	ps := Advise(b.Freeze(), Config{})
	if got := proposalsFor(ps, ValueType, states.PropArea); got != nil {
		t.Errorf("already annotated area proposed again: %+v", got)
	}
	if got := proposalsFor(ps, Label, states.PropBird); got != nil {
		t.Errorf("already labeled bird proposed again: %+v", got)
	}
}

func TestAdviseDeterministicOrder(t *testing.T) {
	sb, err := states.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := sb.Freeze()
	a := Advise(g, Config{})
	b := Advise(g, Config{})
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("proposal %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Sorted by confidence.
	for i := 1; i < len(a); i++ {
		if a[i].Confidence > a[i-1].Confidence {
			t.Fatal("not sorted by confidence")
		}
	}
}

func TestLooksOpaque(t *testing.T) {
	opaque := []string{"0xA010-3", "ZXQRT", "kjhgfd", "a1-b2-c3"}
	for _, s := range opaque {
		if !looksOpaque(s) {
			t.Errorf("looksOpaque(%q) = false", s)
		}
	}
	readable := []string{"", "Cardinal", "Olive Oil", "44826", "Fall 2004", "graduate student"}
	for _, s := range readable {
		if looksOpaque(s) {
			t.Errorf("looksOpaque(%q) = true", s)
		}
	}
}

func TestDescribeReadable(t *testing.T) {
	p := Proposal{
		Kind: ValueType, Prop: states.PropArea, ValueType: schema.Integer,
		Confidence: 1, Evidence: "50/50 sampled values parse as integers",
	}
	got := p.Describe(func(r rdf.IRI) string { return r.LocalName() })
	for _, want := range []string{"area", "integer", "100%", "50/50"} {
		if !strings.Contains(got, want) {
			t.Errorf("Describe missing %q: %s", want, got)
		}
	}
}
