package qlang

import (
	"strings"
	"testing"

	"magnet/internal/datasets/recipes"
	"magnet/internal/query"
	"magnet/internal/rdf"
	"magnet/internal/schema"
)

func fixture(t *testing.T) (*rdf.Graph, *Resolver, *query.Engine) {
	t.Helper()
	g := recipes.Build(recipes.Config{Recipes: 400, Seed: 1}).Freeze()
	sch := schema.NewStore(g)
	r := NewResolver(g, sch)
	items := g.SubjectsOfType(recipes.ClassRecipe)
	e := query.NewEngine(g, sch, nil, func() []rdf.IRI { return items })
	return g, r, e
}

func parse(t *testing.T, r *Resolver, src string) query.Query {
	t.Helper()
	q, err := Parse(src, r)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestResolverPropertyNames(t *testing.T) {
	_, r, _ := fixture(t)
	// By annotation label, by local name, case-insensitively.
	for _, name := range []string{"cuisine", "Cuisine", "cooking method", "cookingMethod", "servings", "type"} {
		if _, err := r.Property(name); err != nil {
			t.Errorf("Property(%q): %v", name, err)
		}
	}
	if _, err := r.Property("nonsense"); err == nil {
		t.Error("unknown property should error")
	}
}

func TestResolverValues(t *testing.T) {
	g, r, _ := fixture(t)
	cuisineProp, _ := r.Property("cuisine")
	v, err := r.Value(cuisineProp, "greek")
	if err != nil {
		t.Fatal(err)
	}
	if v != recipes.Cuisine("Greek") {
		t.Errorf("Value = %v", v)
	}
	if _, err := r.Value(cuisineProp, "atlantean"); err == nil {
		t.Error("unknown value should error")
	}
	_ = g
}

func TestParseEqualityAndEvaluation(t *testing.T) {
	g, r, e := fixture(t)
	q := parse(t, r, `cuisine = Greek`)
	items := e.Evaluate(q)
	if len(items) == 0 {
		t.Fatal("no Greek recipes")
	}
	for _, it := range items[:5] {
		if !g.Has(it, recipes.PropCuisine, recipes.Cuisine("Greek")) {
			t.Errorf("%s not Greek", it)
		}
	}
}

func TestParseConjunctionFlattens(t *testing.T) {
	_, r, _ := fixture(t)
	q := parse(t, r, `cuisine = Greek AND servings >= 4 AND course = Dessert`)
	if len(q.Terms) != 3 {
		t.Fatalf("top-level AND should flatten to 3 constraints, got %d", len(q.Terms))
	}
}

func TestParsePrecedenceAndParens(t *testing.T) {
	_, r, e := fixture(t)
	// AND binds tighter: a OR b AND c == a OR (b AND c).
	q1 := parse(t, r, `cuisine = Greek OR cuisine = Mexican AND course = Dessert`)
	if len(q1.Terms) != 1 {
		t.Fatalf("OR query should be one term, got %d", len(q1.Terms))
	}
	or, ok := q1.Terms[0].(query.Or)
	if !ok || len(or.Ps) != 2 {
		t.Fatalf("term = %#v", q1.Terms[0])
	}
	if _, ok := or.Ps[1].(query.And); !ok {
		t.Errorf("right OR arm should be an AND, got %T", or.Ps[1])
	}
	// Parentheses override.
	q2 := parse(t, r, `(cuisine = Greek OR cuisine = Mexican) AND course = Dessert`)
	if len(q2.Terms) != 2 {
		t.Fatalf("parenthesised query should flatten to 2 constraints, got %d", len(q2.Terms))
	}
	// Both evaluate without error and q2 is a subset of Greek∪Mexican.
	set1 := q1.Eval(e)
	set2 := q2.Eval(e)
	if set2.Len() == 0 || set1.Len() == 0 {
		t.Error("empty evaluations")
	}
	for _, it := range set2.Items() {
		if !set1.Has(it) && set1.Len() > 0 {
			// q2 ⊆ (Greek ∪ (Mexican ∧ Dessert)) need not hold; just sanity
			// that both are non-crazy.
			break
		}
	}
}

func TestParseNegation(t *testing.T) {
	g, r, e := fixture(t)
	q := parse(t, r, `cuisine = Greek AND NOT ingredient.group = Nuts`)
	if len(q.Terms) != 2 {
		t.Fatalf("terms = %d", len(q.Terms))
	}
	for _, it := range e.Evaluate(q) {
		for _, ing := range g.Objects(it, recipes.PropIngredient) {
			if g.Has(ing.(rdf.IRI), recipes.PropGroup, recipes.Group("Nuts")) {
				t.Fatalf("%s has nuts", it)
			}
		}
	}
	// != sugar.
	q2 := parse(t, r, `cuisine != Greek`)
	if _, ok := q2.Terms[0].(query.Not); !ok {
		t.Errorf("!= should parse to Not, got %T", q2.Terms[0])
	}
}

func TestParseComposedPath(t *testing.T) {
	_, r, e := fixture(t)
	q := parse(t, r, `ingredient.group = Dairy`)
	pp, ok := q.Terms[0].(query.PathProperty)
	if !ok || len(pp.Path) != 2 {
		t.Fatalf("term = %#v", q.Terms[0])
	}
	if len(e.Evaluate(q)) == 0 {
		t.Error("no dairy recipes")
	}
}

func TestParseRanges(t *testing.T) {
	_, r, e := fixture(t)
	ge := parse(t, r, `servings >= 4`)
	gt := parse(t, r, `servings > 4`)
	// Strict > on an integer attribute excludes the boundary.
	nGE := len(e.Evaluate(ge))
	nGT := len(e.Evaluate(gt))
	if nGT >= nGE {
		t.Errorf("> (%d) should be narrower than >= (%d)", nGT, nGE)
	}
	le := parse(t, r, `servings <= 2`)
	lt := parse(t, r, `servings < 2`)
	if len(e.Evaluate(lt)) >= len(e.Evaluate(le)) {
		t.Error("< should be narrower than <=")
	}
}

func TestParseTextOperators(t *testing.T) {
	_, r, _ := fixture(t)
	q := parse(t, r, `directions : walnut`)
	kw, ok := q.Terms[0].(query.Keyword)
	if !ok || kw.Field != string(recipes.PropContent) || kw.Text != "walnut" {
		t.Fatalf("term = %#v", q.Terms[0])
	}
	// Bare quoted string → any-field keyword search.
	q2 := parse(t, r, `"winter soup"`)
	kw2 := q2.Terms[0].(query.Keyword)
	if kw2.Field != "" || kw2.Text != "winter soup" {
		t.Errorf("bare string = %#v", kw2)
	}
	// Bare word → keyword search too.
	q3 := parse(t, r, `walnut`)
	if kw3 := q3.Terms[0].(query.Keyword); kw3.Text != "walnut" {
		t.Errorf("bare word = %#v", kw3)
	}
}

func TestParseErrors(t *testing.T) {
	_, r, _ := fixture(t)
	bad := []string{
		`cuisine =`,
		`cuisine = Atlantis`,
		`nonsense = x`,
		`cuisine ! Greek`,
		`(cuisine = Greek`,
		`cuisine = Greek )`,
		`servings >= soon`,
		`"unterminated`,
		`ingredient.group : word`,
		`ingredient.group > 4`,
		`cuisine.`,
		``,
	}
	for _, src := range bad {
		if _, err := Parse(src, r); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
	for _, src := range bad {
		if _, err := Parse(src, r); err != nil && !strings.Contains(err.Error(), "qlang") {
			t.Errorf("error for %q should carry package context: %v", src, err)
		}
	}
}
