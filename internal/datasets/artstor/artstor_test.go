package artstor

import (
	"testing"

	"magnet/internal/rdf"
	"magnet/internal/schema"
)

func TestBuildShape(t *testing.T) {
	g := Build(Config{}).Freeze()
	works := g.SubjectsOfType(ClassArtwork)
	if len(works) != 240 {
		t.Fatalf("works = %d", len(works))
	}
	for _, w := range works[:10] {
		for _, p := range []rdf.IRI{PropCreator, PropCulture, PropPeriod, PropMedium, PropCollection, PropYear, PropAccession} {
			if _, ok := g.Object(w, p); !ok {
				t.Errorf("%s missing %s", w, p.LocalName())
			}
		}
		if !g.HasLabel(w) {
			t.Errorf("%s unlabeled", w)
		}
	}
}

func TestArrivesAnnotated(t *testing.T) {
	g := Build(Config{Works: 40}).Freeze()
	sch := schema.NewStore(g)
	if !sch.HasLabel(PropMedium) {
		t.Error("medium should be labeled")
	}
	if sch.ValueType(PropYear) != schema.Integer {
		t.Error("year should be integer-typed")
	}
	if !sch.IsFacet(PropCulture) {
		t.Error("culture facet annotation missing")
	}
}

func TestAccessionHidable(t *testing.T) {
	if schema.NewStore(Build(Config{Works: 20}).Freeze()).Hidden(PropAccession) {
		t.Error("accession should be visible by default")
	}
	if !schema.NewStore(Build(Config{Works: 20, HideAccession: true}).Freeze()).Hidden(PropAccession) {
		t.Error("HideAccession ignored")
	}
}

func TestFacetValuesShared(t *testing.T) {
	g := Build(Config{}).Freeze()
	shared := 0
	for _, v := range g.ObjectsOf(PropMedium) {
		if g.SubjectCount(PropMedium, v) >= 2 {
			shared++
		}
	}
	if shared < 5 {
		t.Errorf("only %d shared media values", shared)
	}
}

func TestDeterministic(t *testing.T) {
	a := Build(Config{Works: 30, Seed: 3}).Freeze()
	b := Build(Config{Works: 30, Seed: 3}).Freeze()
	if len(a.AllStatements()) != len(b.AllStatements()) {
		t.Fatal("nondeterministic")
	}
}
