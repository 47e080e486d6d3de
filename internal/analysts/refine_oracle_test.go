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
	"magnet/internal/itemset"
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
	for _, it := range env.Graph.SubjectsFromIDs(pp.Eval(env.Engine).Slice()) {
		if members[it] {
			n++
		}
	}
	return n
}

// coordTally counts the object coordinates the model ranked on the
// checked views: composed ones, direct ones on a hidden predicate, and
// how many postings the analyst counts by galloping (at least
// itemset.SkewRatio times the view) or by bit test.
type coordTally struct {
	composed, hidden   int
	galloped, bitTests int
}

// oracleRefinements returns the attribute/value refinements, key → "n of
// N" detail, the analyst should post on v (whose members are given as
// IRIs), computed with the old counts, and tallies the coordinates into
// tl.
func oracleRefinements(env *analysts.Env, v blackboard.View, members []rdf.IRI, tl *coordTally) map[string]string {
	out := make(map[string]string)
	counts := oracleMemberCounts(env, members)
	n := len(members)
	for _, wc := range env.Model.TopCoords(env.Model.Centroid(v.IDs), 40) {
		c := wc.Coord
		if c.Kind != vsm.CoordObject {
			continue
		}
		var pred query.Predicate
		var cnt int
		var posting itemset.Set
		if len(c.Path) == 1 {
			pred = query.Property{Prop: c.Path[0], Value: c.Value}
			cnt = counts[string(c.Path[0])+"\x00"+c.Value.Key()]
			posting = env.Graph.SubjectIDSet(c.Path[0], c.Value)
			if env.Schema.Hidden(c.Path[0]) {
				tl.hidden++
			}
		} else {
			pp := query.PathProperty{Path: c.Path, Value: c.Value}
			pred = pp
			cnt = oracleComposedCount(env, pp, members)
			posting = pp.Eval(env.Engine)
			tl.composed++
		}
		if posting.Len() >= itemset.SkewRatio*n {
			tl.galloped++
		} else {
			tl.bitTests++
		}
		if cnt > 0 && cnt < n {
			out["refine:"+pred.Key()] = fmt.Sprintf("%d of %d", cnt, n)
		}
	}
	return out
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
		if err := s.Apply(blackboard.GoToCollection{Title: fmt.Sprintf("random %d", i), IDs: idsOf(g, items)}); err != nil {
			t.Fatal(err)
		}
		views = append(views, s.Current())
		s.Refine(query.Property{Prop: recipes.PropCuisine, Value: cuisines[rng.Intn(len(cuisines))]}, blackboard.RefineMode(i%3))
		views = append(views, s.Current())
	}
	return views
}

// checkViews compares the posted refinements with the oracle on every
// view and tallies the coordinates the model ranked.
func checkViews(t *testing.T, m *core.Magnet, views []blackboard.View) (tl coordTally) {
	t.Helper()
	env := &analysts.Env{Graph: m.Graph(), Schema: m.Schema(), Model: m.Model(), Engine: query.NewEngine(m.Graph(), m.Schema(), m.TextIndex(), m.Graph().SubjectIDsOf(m.Items())), Text: m.TextIndex()}
	for i, v := range views {
		members := m.Graph().SubjectsFromIDs(v.Members())
		if len(members) != v.Len() || v.IDs.IntersectCount(m.Graph().SubjectIDsOf(members)) != v.Len() {
			t.Fatalf("view %d (%s): the display order does not list the members once each", i, v.Key())
		}
		if v.Len() < 2 {
			continue
		}
		want := oracleRefinements(env, v, members, &tl)
		if got := postedRefinements(env, v); !reflect.DeepEqual(got, want) {
			t.Fatalf("view %d (%s, %d items): posted %v, oracle %v", i, v.Key(), v.Len(), got, want)
		}
	}
	return tl
}

// TestRefinementCountsMatchOracle compares the posting-intersection counts
// with the brute-force member walk on seeded random recipe views, which
// must reach both counting branches: bit tests against the view's bitmap
// and galloping the view through a much larger posting. A second
// instance hides the ingredient property before it is frozen: the vector
// space model then never ranks a coordinate on it, so the analyst needs
// no hidden-predicate guard of its own.
func TestRefinementCountsMatchOracle(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 600, Seed: 5})
	m := core.Open(gb, core.Options{})
	defer m.Close()
	tl := checkViews(t, m, sampleViews(t, m, 24))
	if tl.composed == 0 {
		t.Fatal("no composed coordinate was ranked; the composed count went untested")
	}
	if tl.galloped == 0 || tl.bitTests == 0 {
		t.Fatalf("%d galloped and %d bit-tested counts; both branches must be checked", tl.galloped, tl.bitTests)
	}
	t.Logf("%d coordinates counted by bit test, %d by galloping (%d composed)", tl.bitTests, tl.galloped, tl.composed)

	schema.SetHidden(gb, recipes.PropIngredient)
	hid := core.Open(gb, core.Options{})
	defer hid.Close()
	if !hid.Schema().Hidden(recipes.PropIngredient) {
		t.Fatal("ingredient not hidden after the builder annotation")
	}
	if tl := checkViews(t, hid, sampleViews(t, hid, 9)); tl.hidden != 0 {
		t.Fatalf("%d coordinates on a hidden predicate were ranked", tl.hidden)
	}
}
