package query

import (
	"reflect"
	"strings"
	"testing"

	"magnet/internal/rdf"
	"magnet/internal/schema"
)

func setFixture() *Engine {
	gb := rdf.NewBuilder()
	add := func(item string, ings ...string) {
		it := rdf.IRI(ex + item)
		gb.Add(it, rdf.Type, clsRecipe)
		for _, ing := range ings {
			gb.Add(it, pIngredient, rdf.IRI(ex+ing))
		}
	}
	add("r1", "beans", "corn")
	add("r2", "beans")
	add("r3", "feta", "corn")
	add("r4", "feta")
	add("r5") // no ingredients at all
	items := []rdf.IRI{iri("r1"), iri("r2"), iri("r3"), iri("r4"), iri("r5")}
	g := gb.Freeze()
	return NewEngine(g, schema.NewStore(g), nil, g.SubjectIDsOf(items))
}

func TestAnyValueIn(t *testing.T) {
	e := setFixture()
	p := AnyValueIn{Prop: pIngredient, Values: []rdf.IRI{iri("beans"), iri("corn")}}
	got := e.items(p.Eval(e))
	want := []rdf.IRI{iri("r1"), iri("r2"), iri("r3")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AnyValueIn = %v", got)
	}
	if n := (AnyValueIn{Prop: pIngredient}).Eval(e).Len(); n != 0 {
		t.Errorf("empty value set matched %d", n)
	}
}

func TestAllValuesIn(t *testing.T) {
	e := setFixture()
	p := AllValuesIn{Prop: pIngredient, Values: []rdf.IRI{iri("beans"), iri("corn")}}
	got := e.items(p.Eval(e))
	// r1 (beans+corn) and r2 (beans) qualify; r3 has feta too; r5 has no
	// ingredient at all and must not match.
	want := []rdf.IRI{iri("r1"), iri("r2")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AllValuesIn = %v", got)
	}
}

func TestSetPredicateKeysOrderIndependent(t *testing.T) {
	a := AnyValueIn{Prop: pIngredient, Values: []rdf.IRI{iri("x"), iri("y")}}
	b := AnyValueIn{Prop: pIngredient, Values: []rdf.IRI{iri("y"), iri("x")}}
	if a.Key() != b.Key() {
		t.Error("AnyValueIn key should ignore value order")
	}
	c := AllValuesIn{Prop: pIngredient, Values: []rdf.IRI{iri("x"), iri("y")}}
	d := AllValuesIn{Prop: pIngredient, Values: []rdf.IRI{iri("y"), iri("x")}}
	if c.Key() != d.Key() {
		t.Error("AllValuesIn key should ignore value order")
	}
	if a.Key() == c.Key() {
		t.Error("any/all keys must differ")
	}
}

func TestSetPredicateDescribe(t *testing.T) {
	l := func(r rdf.IRI) string { return r.LocalName() }
	named := AnyValueIn{Prop: pIngredient, Name: "North American ingredients",
		Values: []rdf.IRI{iri("corn")}}
	if got := named.Describe(l); !strings.Contains(got, "North American ingredients") {
		t.Errorf("named describe = %q", got)
	}
	anon := AnyValueIn{Prop: pIngredient,
		Values: []rdf.IRI{iri("a"), iri("b"), iri("c"), iri("d")}}
	got := anon.Describe(l)
	if !strings.Contains(got, "…") {
		t.Errorf("long anonymous set should truncate: %q", got)
	}
	all := AllValuesIn{Prop: pIngredient, Name: "legumes", Values: []rdf.IRI{iri("beans")}}
	if got := all.Describe(l); !strings.Contains(got, "all within legumes") {
		t.Errorf("all describe = %q", got)
	}
}
