package factbook

import (
	"testing"

	"magnet/internal/rdf"
	"magnet/internal/schema"
)

func TestBuildShape(t *testing.T) {
	g := Build(Config{}).Freeze()
	countries := g.SubjectsOfType(ClassCountry)
	if len(countries) != 190 {
		t.Fatalf("countries = %d", len(countries))
	}
	for _, c := range countries[:10] {
		for _, p := range []rdf.IRI{PropName, PropRegion, PropCurrency, PropIndependence, PropPopulation} {
			if _, ok := g.Object(c, p); !ok {
				t.Errorf("%s missing %s", c, p.LocalName())
			}
		}
		if g.ObjectCount(c, PropLanguage) == 0 {
			t.Errorf("%s has no language", c)
		}
	}
}

func TestSharedCurrenciesAndIndependenceDays(t *testing.T) {
	// The §6.1 claim needs clusters: many countries sharing a currency and
	// an independence day.
	g := Build(Config{}).Freeze()
	if n := g.SubjectCount(PropCurrency, rdf.NewString("Euro")); n < 10 {
		t.Errorf("only %d euro countries", n)
	}
	shared := 0
	for _, day := range g.ObjectsOf(PropIndependence) {
		if g.SubjectCount(PropIndependence, day) >= 2 {
			shared++
		}
	}
	if shared < 5 {
		t.Errorf("only %d shared independence days", shared)
	}
}

func TestDeterministic(t *testing.T) {
	a := Build(Config{Countries: 40, Seed: 9}).Freeze()
	b := Build(Config{Countries: 40, Seed: 9}).Freeze()
	if len(a.AllStatements()) != len(b.AllStatements()) {
		t.Fatal("nondeterministic")
	}
	as, bs := a.AllStatements(), b.AllStatements()
	for i := range as {
		if as[i].Key() != bs[i].Key() {
			t.Fatalf("statement %d differs", i)
		}
	}
}

func TestAnnotate(t *testing.T) {
	b := Build(Config{Countries: 30})
	if schema.NewStore(b.Freeze()).ValueType(PropPopulation) != schema.Text {
		t.Error("population should be stringly before Annotate")
	}
	Annotate(b)
	sch := schema.NewStore(b.Freeze())
	if sch.ValueType(PropPopulation) != schema.Integer {
		t.Error("population should be Integer after Annotate")
	}
	if sch.Label(PropIndependence) != "Independence day" {
		t.Errorf("label = %q", sch.Label(PropIndependence))
	}
	if !sch.IsFacet(PropCurrency) {
		t.Error("currency facet annotation missing")
	}
}

func TestCountryNamesDistinctEnough(t *testing.T) {
	seen := map[string]int{}
	for i := 0; i < 190; i++ {
		seen[countryName(i)]++
	}
	if len(seen) < 150 {
		t.Errorf("only %d distinct names for 190 countries", len(seen))
	}
}
