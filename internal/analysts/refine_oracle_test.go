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
// and how many were direct coordinates on hidden whose raw posting count
// would have made a suggestion.
func oracleRefinements(env *analysts.Env, v blackboard.View) (out map[string]string, composed, hiddenLive int) {
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
				raw := env.Graph.SubjectIDSet(c.Path[0], c.Value).IntersectCount(v.IDs)
				if raw > 0 && raw < n {
					hiddenLive++
				}
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
	return out, composed, hiddenLive
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

// TestRefinementCountsMatchOracle compares the posting-intersection counts
// with the brute-force member walk on seeded random recipe collections:
// query views (cuisine and ingredient constraints), fixed views (random
// member lists) and fixed views refined again. A second pass hides the
// ingredient property after the vectors are built, so ingredient
// coordinates still rank but must count 0 and post nothing.
func TestRefinementCountsMatchOracle(t *testing.T) {
	g := recipes.Build(recipes.Config{Recipes: 600, Seed: 5})
	m := core.Open(g, core.Options{})
	defer m.Close()
	env := &analysts.Env{Graph: m.Graph(), Schema: m.Schema(), Model: m.Model(), Engine: m.Engine(), Text: m.TextIndex()}
	all := g.SubjectsOfType(recipes.ClassRecipe)
	cuisines := g.ObjectsOf(recipes.PropCuisine)
	ingredients := g.ObjectsOf(recipes.PropIngredient)
	rng := rand.New(rand.NewSource(11))

	var views []blackboard.View
	for i := 0; i < 24; i++ {
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

	check := func(phase string) (composed, hiddenLive int) {
		for i, v := range views {
			if !reflect.DeepEqual(v.IDs, g.SubjectIDsOf(v.Collection)) {
				t.Fatalf("%s view %d (%s): IDs do not hold the collection's members", phase, i, v.Key())
			}
			if len(v.Collection) < 2 {
				continue
			}
			want, c, h := oracleRefinements(env, v)
			composed += c
			hiddenLive += h
			if got := postedRefinements(env, v); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s view %d (%s, %d items): posted %v, oracle %v", phase, i, v.Key(), len(v.Collection), got, want)
			}
		}
		return composed, hiddenLive
	}
	if composed, _ := check("visible"); composed == 0 {
		t.Fatal("no composed coordinate was ranked; the composed count went untested")
	}
	m.Schema().SetHidden(recipes.PropIngredient)
	if _, hiddenLive := check("hidden"); hiddenLive == 0 {
		t.Fatal("no hidden-predicate coordinate would have posted; the Hidden guard went untested")
	}
}
