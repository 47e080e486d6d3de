package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"magnet/internal/index"
	"magnet/internal/rdf"
	"magnet/internal/schema"
)

const ex = "http://example.org/"

var (
	pCuisine    = rdf.IRI(ex + "cuisine")
	pIngredient = rdf.IRI(ex + "ingredient")
	pServings   = rdf.IRI(ex + "servings")
	pSent       = rdf.IRI(ex + "sent")
	clsRecipe   = rdf.IRI(ex + "Recipe")
	greek       = rdf.IRI(ex + "Greek")
	mexican     = rdf.IRI(ex + "Mexican")
	feta        = rdf.IRI(ex + "Feta")
	walnut      = rdf.IRI(ex + "Walnut")
)

// fixture: 5 recipes with cuisines, ingredients, servings, dates and text.
func fixture() (*Engine, []rdf.IRI) {
	gb := rdf.NewBuilder()
	tb := index.NewTextBuilder(nil)

	add := func(id string, cuisine rdf.IRI, servings int64, day int, title string, ingredients ...rdf.IRI) rdf.IRI {
		it := rdf.IRI(ex + id)
		gb.Add(it, rdf.Type, clsRecipe)
		gb.Add(it, pCuisine, cuisine)
		gb.Add(it, pServings, rdf.NewInteger(servings))
		gb.Add(it, pSent, rdf.NewTime(time.Date(2003, 7, day, 0, 0, 0, 0, time.UTC)))
		gb.Add(it, rdf.DCTitle, rdf.NewString(title))
		for _, ing := range ingredients {
			gb.Add(it, pIngredient, ing)
		}
		tb.Index(string(it), "title", title)
		return it
	}
	items := []rdf.IRI{
		add("r1", greek, 4, 1, "Greek Salad with Feta", feta),
		add("r2", greek, 8, 5, "Walnut Baklava", walnut),
		add("r3", greek, 2, 10, "Parsley Dip", feta),
		add("r4", mexican, 6, 15, "Walnut Mole", walnut),
		add("r5", mexican, 4, 20, "Bean Tacos"),
	}
	g := gb.Freeze()
	tix := tb.Freeze()
	sch := schema.NewStore(g)
	e := NewEngine(g, sch, tix, func() []rdf.IRI { return items })
	return e, items
}

func iri(id string) rdf.IRI { return rdf.IRI(ex + id) }

func TestPropertyPredicate(t *testing.T) {
	e, _ := fixture()
	got := Property{pCuisine, greek}.Eval(e).Items()
	want := []rdf.IRI{iri("r1"), iri("r2"), iri("r3")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("greek = %v", got)
	}
	if n := TypeIs(clsRecipe).Eval(e).Len(); n != 5 {
		t.Errorf("TypeIs matched %d", n)
	}
	if n := (Property{pCuisine, rdf.IRI(ex + "Thai")}).Eval(e).Len(); n != 0 {
		t.Errorf("absent value matched %d", n)
	}
}

func TestKeywordPredicate(t *testing.T) {
	e, _ := fixture()
	got := Keyword{Text: "walnut"}.Eval(e).Items()
	want := []rdf.IRI{iri("r2"), iri("r4")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("keyword walnut = %v", got)
	}
	// Field scoping and empty text.
	if n := (Keyword{Text: "walnut", Field: "body"}).Eval(e).Len(); n != 0 {
		t.Errorf("body-scoped matched %d", n)
	}
	if n := (Keyword{Text: "   "}).Eval(e).Len(); n != 0 {
		t.Errorf("blank keyword matched %d", n)
	}
}

func TestKeywordWithoutTextIndex(t *testing.T) {
	gb := rdf.NewBuilder()
	g := gb.Freeze()
	e := NewEngine(g, schema.NewStore(g), nil, func() []rdf.IRI { return nil })
	if n := (Keyword{Text: "anything"}).Eval(e).Len(); n != 0 {
		t.Errorf("nil index matched %d", n)
	}
}

func TestRangePredicate(t *testing.T) {
	e, _ := fixture()
	got := Between(pServings, 4, 6).Eval(e).Items()
	want := []rdf.IRI{iri("r1"), iri("r4"), iri("r5")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("servings 4..6 = %v", got)
	}
	if got := AtLeast(pServings, 8).Eval(e).Items(); !reflect.DeepEqual(got, []rdf.IRI{iri("r2")}) {
		t.Errorf("servings ≥ 8 = %v", got)
	}
	if got := AtMost(pServings, 2).Eval(e).Items(); !reflect.DeepEqual(got, []rdf.IRI{iri("r3")}) {
		t.Errorf("servings ≤ 2 = %v", got)
	}
}

func TestTimeRangePredicate(t *testing.T) {
	e, _ := fixture()
	from := time.Date(2003, 7, 4, 0, 0, 0, 0, time.UTC)
	to := time.Date(2003, 7, 12, 0, 0, 0, 0, time.UTC)
	got := TimeBetween(pSent, from, to).Eval(e).Items()
	want := []rdf.IRI{iri("r2"), iri("r3")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("date window = %v", got)
	}
}

func TestRangeSkipsNonNumeric(t *testing.T) {
	e, _ := fixture()
	// cuisine values are IRIs: a range over them matches nothing.
	if n := Between(pCuisine, 0, 1e12).Eval(e).Len(); n != 0 {
		t.Errorf("range over IRIs matched %d", n)
	}
}

func TestNotPredicate(t *testing.T) {
	e, _ := fixture()
	got := Not{Property{pIngredient, walnut}}.Eval(e).Items()
	want := []rdf.IRI{iri("r1"), iri("r3"), iri("r5")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NOT walnut = %v", got)
	}
}

func TestAndOrPredicates(t *testing.T) {
	e, _ := fixture()
	and := And{[]Predicate{Property{pCuisine, greek}, Property{pIngredient, feta}}}
	if got := and.Eval(e).Items(); !reflect.DeepEqual(got, []rdf.IRI{iri("r1"), iri("r3")}) {
		t.Errorf("AND = %v", got)
	}
	or := Or{[]Predicate{Property{pIngredient, feta}, Property{pIngredient, walnut}}}
	if got := or.Eval(e).Items(); len(got) != 4 {
		t.Errorf("OR = %v", got)
	}
	// Empty And = universe; empty Or = nothing.
	if n := (And{}).Eval(e).Len(); n != 5 {
		t.Errorf("empty AND = %d", n)
	}
	if n := (Or{}).Eval(e).Len(); n != 0 {
		t.Errorf("empty OR = %d", n)
	}
}

func TestQueryRefinementLifecycle(t *testing.T) {
	e, _ := fixture()
	// The paper's Figure 1 walk: type=Recipe ∧ cuisine=Greek ∧ ingredient=Feta.
	q := NewQuery(TypeIs(clsRecipe)).
		With(Property{pCuisine, greek}).
		With(Property{pIngredient, feta})
	if got := e.Evaluate(q); !reflect.DeepEqual(got, []rdf.IRI{iri("r1"), iri("r3")}) {
		t.Fatalf("conjunction = %v", got)
	}
	// Remove the feta constraint (the '✕'): all Greek recipes.
	q2 := q.Without(2)
	if got := e.Evaluate(q2); len(got) != 3 {
		t.Errorf("after Without = %v", got)
	}
	// Negate the cuisine constraint: feta recipes that are NOT Greek.
	q3 := q.Negate(1)
	if got := e.Evaluate(q3); len(got) != 0 {
		t.Errorf("feta non-greek = %v (fixture has none)", got)
	}
	// Double negation unwraps.
	q4 := q3.Negate(1)
	if q4.Key() != q.Key() {
		t.Error("double negation should restore the query")
	}
	// With dedups identical constraints.
	if q5 := q.With(Property{pCuisine, greek}); len(q5.Terms) != len(q.Terms) {
		t.Error("duplicate constraint added")
	}
	// Out-of-range ops are no-ops.
	if q.Without(99).Key() != q.Key() || q.Negate(-1).Key() != q.Key() {
		t.Error("out-of-range ops must not change the query")
	}
}

func TestEmptyQueryYieldsUniverse(t *testing.T) {
	e, items := fixture()
	if got := e.Evaluate(NewQuery()); len(got) != len(items) {
		t.Errorf("empty query = %d items", len(got))
	}
	if !NewQuery().IsEmpty() || NewQuery(TypeIs(clsRecipe)).IsEmpty() {
		t.Error("IsEmpty wrong")
	}
}

func TestQueryKeyOrderIndependent(t *testing.T) {
	a := NewQuery(Property{pCuisine, greek}, Property{pIngredient, feta})
	b := NewQuery(Property{pIngredient, feta}, Property{pCuisine, greek})
	if a.Key() != b.Key() {
		t.Error("conjunction key should be order independent")
	}
}

func TestDescriptions(t *testing.T) {
	e, _ := fixture()
	l := func(r rdf.IRI) string { return e.Graph().Label(r) }
	tests := []struct {
		p    Predicate
		want string
	}{
		{Property{pCuisine, greek}, "cuisine = Greek"},
		{Not{Property{pCuisine, greek}}, "NOT cuisine = Greek"},
		{Keyword{Text: "walnut"}, `contains "walnut"`},
		{Keyword{Text: "walnut", Field: "title"}, `title contains "walnut"`},
		{Between(pServings, 2, 8), "servings in [2, 8]"},
		{AtLeast(pServings, 5), "servings ≥ 5"},
		{AtMost(pServings, 5), "servings ≤ 5"},
		{And{[]Predicate{Property{pCuisine, greek}, Keyword{Text: "dip"}}},
			`(cuisine = Greek AND contains "dip")`},
		{Or{[]Predicate{Property{pIngredient, feta}, Property{pIngredient, walnut}}},
			"(ingredient = Feta OR ingredient = Walnut)"},
	}
	for _, tt := range tests {
		if got := tt.p.Describe(l); got != tt.want {
			t.Errorf("Describe = %q, want %q", got, tt.want)
		}
	}
	// Temporal bounds render as dates.
	from := time.Date(2003, 7, 4, 0, 0, 0, 0, time.UTC)
	to := time.Date(2003, 7, 12, 0, 0, 0, 0, time.UTC)
	d := TimeBetween(pSent, from, to).Describe(l)
	if !strings.Contains(d, "2003-07-04") || !strings.Contains(d, "2003-07-12") {
		t.Errorf("temporal describe = %q", d)
	}
}

func TestSetOperations(t *testing.T) {
	a := NewSet("x", "y")
	b := NewSet("y", "z")
	if got := a.Intersect(b).Items(); !reflect.DeepEqual(got, []rdf.IRI{"y"}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Union(b).Items(); len(got) != 3 {
		t.Errorf("Union = %v", got)
	}
	if got := a.Minus(b).Items(); !reflect.DeepEqual(got, []rdf.IRI{"x"}) {
		t.Errorf("Minus = %v", got)
	}
	if a.Has("q") || !a.Has("x") {
		t.Error("Has wrong")
	}
}

func TestPathPropertyPredicate(t *testing.T) {
	gb := rdf.NewBuilder()
	pAuthor, pField := rdf.IRI(ex+"author"), rdf.IRI(ex+"expertise")
	doc1, doc2 := iri("d1"), iri("d2")
	alice, bob := iri("alice"), iri("bob")
	ir := iri("IR")
	gb.Add(doc1, pAuthor, alice)
	gb.Add(doc2, pAuthor, bob)
	gb.Add(alice, pField, ir)
	gb.Add(bob, pField, iri("DB"))
	g := gb.Freeze()
	sch := schema.NewStore(g)
	e := NewEngine(g, sch, nil, func() []rdf.IRI { return []rdf.IRI{doc1, doc2} })

	p := PathProperty{Path: []rdf.IRI{pAuthor, pField}, Value: ir}
	if got := p.Eval(e).Items(); !reflect.DeepEqual(got, []rdf.IRI{doc1}) {
		t.Errorf("PathProperty = %v", got)
	}
	// Length-1 path equals Property.
	p1 := PathProperty{Path: []rdf.IRI{pAuthor}, Value: alice}
	if got := p1.Eval(e).Items(); !reflect.DeepEqual(got, []rdf.IRI{doc1}) {
		t.Errorf("len-1 path = %v", got)
	}
	// Empty path and dead-end values match nothing.
	if n := (PathProperty{Value: ir}).Eval(e).Len(); n != 0 {
		t.Errorf("empty path matched %d", n)
	}
	if n := (PathProperty{Path: []rdf.IRI{pAuthor, pField}, Value: iri("none")}).Eval(e).Len(); n != 0 {
		t.Errorf("dead end matched %d", n)
	}
	l := func(r rdf.IRI) string { return r.LocalName() }
	if got := p.Describe(l); got != "author · expertise = IR" {
		t.Errorf("Describe = %q", got)
	}
}

func TestTermMatchPredicate(t *testing.T) {
	e, _ := fixture()
	// The index stems "Walnut" → "walnut"; TermMatch takes the stem as-is.
	got := TermMatch{Term: "walnut", Field: "title"}.Eval(e).Items()
	if !reflect.DeepEqual(got, []rdf.IRI{iri("r2"), iri("r4")}) {
		t.Errorf("TermMatch = %v", got)
	}
	if n := (TermMatch{Term: "walnut", Field: "body"}).Eval(e).Len(); n != 0 {
		t.Errorf("wrong field matched %d", n)
	}
	l := func(r rdf.IRI) string { return r.LocalName() }
	m := TermMatch{Term: "parslei", Field: "title", Display: "parsley"}
	if got := m.Describe(l); got != `title has word "parsley"` {
		t.Errorf("Describe = %q", got)
	}
	if got := (TermMatch{Term: "x"}).Describe(l); got != `has word "x"` {
		t.Errorf("Describe fallback = %q", got)
	}
}

// Custom predicate exercising the extension mechanism: items with at least
// n distinct values of a property (the paper's "recipes having 5 or fewer
// ingredients" example from §6.2 needs exactly this kind of extension).
type maxValues struct {
	prop rdf.IRI
	max  int
}

func (m maxValues) Eval(e *Engine) Set {
	var matched []rdf.IRI
	e.Universe().ForEach(func(it rdf.IRI) bool {
		if e.Graph().ObjectCount(it, m.prop) <= m.max {
			matched = append(matched, it)
		}
		return true
	})
	return e.NewSet(matched...)
}
func (m maxValues) Describe(l Labeler) string {
	return fmt.Sprintf("≤ %d %s values", m.max, l(m.prop))
}
func (m maxValues) Key() string { return fmt.Sprintf("maxvals:%s:%d", m.prop, m.max) }

func TestCustomPredicateExtension(t *testing.T) {
	e, _ := fixture()
	// Recipes with at most zero ingredients: only the taco (r5).
	got := e.Evaluate(NewQuery(maxValues{pIngredient, 0}))
	if !reflect.DeepEqual(got, []rdf.IRI{iri("r5")}) {
		t.Errorf("custom predicate = %v", got)
	}
}

// Properties: De Morgan on random predicate pairs, and Not∘Not = identity,
// evaluated over the fixture.
func TestQuickBooleanAlgebra(t *testing.T) {
	e, _ := fixture()
	preds := []Predicate{
		Property{pCuisine, greek},
		Property{pCuisine, mexican},
		Property{pIngredient, feta},
		Property{pIngredient, walnut},
		Keyword{Text: "walnut"},
		Between(pServings, 2, 6),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := preds[rng.Intn(len(preds))]
		q := preds[rng.Intn(len(preds))]

		// ¬(p ∧ q) == ¬p ∪ ¬q
		lhs := Not{And{[]Predicate{p, q}}}.Eval(e)
		rhs := Or{[]Predicate{Not{p}, Not{q}}}.Eval(e)
		if !reflect.DeepEqual(lhs.Items(), rhs.Items()) {
			return false
		}
		// ¬¬p == p
		if !reflect.DeepEqual(Not{Not{p}}.Eval(e).Items(), p.Eval(e).Items()) {
			return false
		}
		// p ∧ ¬p == ∅
		if (And{[]Predicate{p, Not{p}}}).Eval(e).Len() != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
