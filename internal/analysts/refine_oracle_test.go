package analysts_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"magnet/internal/analysts"
	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/query"
	"magnet/internal/rdf"
	"magnet/internal/schema"
	"magnet/internal/vsm"
)

// oracleMemberCounts is the brute-force "n of N" walk the Refinement
// analyst used before it counted by posting intersection: every
// (predicate, object) pair of every member, hidden predicates skipped.
// Kept as the test oracle for direct coordinates.
func oracleMemberCounts(env *analysts.Env, items []rdf.IRI) map[string]int {
	counts := make(map[string]int)
	for _, it := range items {
		for _, p := range env.Graph.PredicatesOf(it) {
			if env.Schema.Hidden(p) {
				continue
			}
			for _, v := range env.Graph.Objects(it, p) {
				counts[string(p)+"\x00"+v.Key()]++
			}
		}
	}
	return counts
}

// oracleComposedCount is the old count for a composed coordinate: evaluate
// the path, then probe each match against a member map.
func oracleComposedCount(env *analysts.Env, pp query.PathProperty, items []rdf.IRI) int {
	members := make(map[rdf.IRI]bool, len(items))
	for _, it := range items {
		members[it] = true
	}
	n := 0
	pp.Eval(env.Engine).ForEach(func(it rdf.IRI) bool {
		if members[it] {
			n++
		}
		return true
	})
	return n
}

// oracleRefinements returns the attribute/value refinements, key → "n of
// N" detail, the analyst should post on v, computed with the old counts.
// It also reports how many posted or skipped coordinates were composed,
// and how many were direct coordinates on a hidden predicate.
func oracleRefinements(env *analysts.Env, v blackboard.View) (out map[string]string, composed, hidden int) {
	out = make(map[string]string)
	counts := oracleMemberCounts(env, v.Collection)
	n := len(v.Collection)
	for _, wc := range env.Model.RefinementCoords(v.Collection, 40, nil) {
		c := wc.Coord
		if c.Kind != vsm.CoordObject {
			continue
		}
		var pred query.Predicate
		var cnt int
		if len(c.Path) == 1 {
			pred = query.Property{Prop: c.Path[0], Value: c.Value}
			cnt = counts[string(c.Path[0])+"\x00"+c.Value.Key()]
			if env.Schema.Hidden(c.Path[0]) {
				hidden++
			}
		} else {
			pp := query.PathProperty{Path: c.Path, Value: c.Value}
			pred = pp
			cnt = oracleComposedCount(env, pp, v.Collection)
			composed++
		}
		if cnt > 0 && cnt < n {
			out["refine:"+pred.Key()] = fmt.Sprintf("%d of %d", cnt, n)
		}
	}
	return out, composed, hidden
}

// postedRefinements runs the analyst on v and returns its attribute/value
// refinements, key → detail.
func postedRefinements(env *analysts.Env, v blackboard.View) map[string]string {
	b := blackboard.NewBoard()
	analysts.NewRefinement(env, 40).Suggest(v, b)
	out := make(map[string]string)
	for _, sg := range b.Suggestions() {
		if r, ok := sg.Action.(blackboard.Refine); ok {
			switch r.Add.(type) {
			case query.Property, query.PathProperty:
				out[sg.Key] = sg.Detail
			}
		}
	}
	return out
}

// sampleViews enters seeded random recipe views on m: query views
// (cuisine and ingredient constraints), fixed views (random member lists)
// and fixed views refined again.
func sampleViews(t *testing.T, m *core.Magnet, rounds int) []blackboard.View {
	t.Helper()
	g := m.Graph()
	all := g.SubjectsOfType(recipes.ClassRecipe)
	cuisines := g.ObjectsOf(recipes.PropCuisine)
	ingredients := g.ObjectsOf(recipes.PropIngredient)
	rng := rand.New(rand.NewSource(11))

	var views []blackboard.View
	for i := 0; i < rounds; i++ {
		s := m.NewSession()
		var q query.Query
		switch i % 3 {
		case 0:
			q = query.NewQuery(query.Property{Prop: recipes.PropCuisine, Value: cuisines[rng.Intn(len(cuisines))]})
		case 1:
			q = query.NewQuery(query.Property{Prop: recipes.PropIngredient, Value: ingredients[rng.Intn(len(ingredients))]})
		default:
			q = query.NewQuery(query.TypeIs(recipes.ClassRecipe))
		}
		if err := s.Apply(blackboard.ReplaceQuery{Query: q}); err != nil {
			t.Fatal(err)
		}
		views = append(views, s.Current())

		n := 2 + rng.Intn(300)
		items := make([]rdf.IRI, 0, n)
		for _, j := range rng.Perm(len(all))[:n] {
			items = append(items, all[j])
		}
		if err := s.Apply(blackboard.GoToCollection{Title: fmt.Sprintf("random %d", i), Items: items}); err != nil {
			t.Fatal(err)
		}
		views = append(views, s.Current())
		s.Refine(query.Property{Prop: recipes.PropCuisine, Value: cuisines[rng.Intn(len(cuisines))]}, blackboard.RefineMode(i%3))
		views = append(views, s.Current())
	}
	return views
}

// checkViews compares the posted refinements with the oracle on every
// view and returns how many composed and hidden-predicate coordinates the
// model ranked.
func checkViews(t *testing.T, m *core.Magnet, views []blackboard.View) (composed, hidden int) {
	t.Helper()
	env := &analysts.Env{Graph: m.Graph(), Schema: m.Schema(), Model: m.Model(), Engine: m.Engine(), Text: m.TextIndex()}
	for i, v := range views {
		if !reflect.DeepEqual(v.IDs, m.Graph().SubjectIDsOf(v.Collection)) {
			t.Fatalf("view %d (%s): IDs do not hold the collection's members", i, v.Key())
		}
		if len(v.Collection) < 2 {
			continue
		}
		want, c, h := oracleRefinements(env, v)
		composed += c
		hidden += h
		if got := postedRefinements(env, v); !reflect.DeepEqual(got, want) {
			t.Fatalf("view %d (%s, %d items): posted %v, oracle %v", i, v.Key(), len(v.Collection), got, want)
		}
	}
	return composed, hidden
}

// TestRefinementCountsMatchOracle compares the posting-intersection counts
// with the brute-force member walk on seeded random recipe views. A second
// instance hides the ingredient property before it is frozen: the vector
// space model then never ranks a coordinate on it, so the analyst needs
// no hidden-predicate guard of its own.
func TestRefinementCountsMatchOracle(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 600, Seed: 5})
	m := core.Open(gb, core.Options{})
	defer m.Close()
	if composed, _ := checkViews(t, m, sampleViews(t, m, 24)); composed == 0 {
		t.Fatal("no composed coordinate was ranked; the composed count went untested")
	}

	schema.SetHidden(gb, recipes.PropIngredient)
	hid := core.Open(gb, core.Options{})
	defer hid.Close()
	if !hid.Schema().Hidden(recipes.PropIngredient) {
		t.Fatal("ingredient not hidden after the builder annotation")
	}
	if _, hidden := checkViews(t, hid, sampleViews(t, hid, 9)); hidden != 0 {
		t.Fatalf("%d coordinates on a hidden predicate were ranked", hidden)
	}
}
