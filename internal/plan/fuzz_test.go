// FuzzPlanEquivalence decodes arbitrary bytes into a conjunction over the
// recipes vocabulary and checks the planner's answer is byte-identical to
// the naive engine's on both backings: in-memory and frozen segments. The
// planners persist across runs, so the
// fuzzer also exercises hit and parent-delta paths against a warm cache.
package plan_test

import (
	"os"
	"reflect"
	"sync"
	"testing"

	"context"

	"magnet/internal/core"
	"magnet/internal/dataload"
	"magnet/internal/datasets/recipes"
	"magnet/internal/plan"
	"magnet/internal/query"
)

// fuzzWorld is the shared corpus: built once per process (fuzz workers are
// separate processes, each builds its own).
type fuzzWorld struct {
	mem, seg *core.Magnet
	memPl    *plan.Planner
	segPl    *plan.Planner
	err      error
}

var (
	fuzzOnce sync.Once
	world    fuzzWorld
)

func fuzzSetup() *fuzzWorld {
	fuzzOnce.Do(func() {
		gb, allSubjects, err := dataload.Load(dataload.Spec{Dataset: "recipes", Recipes: 120, Seed: 7})
		if err != nil {
			world.err = err
			return
		}
		world.mem = core.Open(gb, core.Options{IndexAllSubjects: allSubjects, PlanCache: -1})
		dir, err := os.MkdirTemp("", "plan-fuzz-*")
		if err != nil {
			world.err = err
			return
		}
		if _, err := world.mem.WriteSegments(dir, "recipes", nil); err != nil {
			world.err = err
			return
		}
		if world.seg, world.err = core.OpenSegments(dir, core.Options{PlanCache: -1}); world.err != nil {
			return
		}
		world.memPl = plan.New(64)
		world.segPl = plan.New(64)
	})
	return &world
}

var (
	fuzzCuisines = []string{"Greek", "Mexican", "Thai", "French", "Indian"}
	fuzzIngs     = []string{"Parsley", "Walnuts", "Feta", "Chicken", "Rice", "Beans"}
	fuzzWords    = []string{"chicken", "bean", "salad", "soup", "walnut", "rice"}
)

// decodeTerm consumes bytes from data and returns one predicate plus the
// remaining bytes; nil predicate means the stream ran dry.
func decodeTerm(data []byte) (query.Predicate, []byte) {
	if len(data) < 2 {
		return nil, nil
	}
	kind, v := data[0]%8, int(data[1])
	rest := data[2:]
	switch kind {
	case 0:
		return query.TypeIs(recipes.ClassRecipe), rest
	case 1:
		return query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine(fuzzCuisines[v%len(fuzzCuisines)])}, rest
	case 2:
		return query.Property{Prop: recipes.PropIngredient, Value: recipes.Ingredient(fuzzIngs[v%len(fuzzIngs)])}, rest
	case 3:
		return query.Keyword{Text: fuzzWords[v%len(fuzzWords)]}, rest
	case 4:
		if len(rest) < 1 {
			return nil, nil
		}
		lo := float64(v % 10)
		hi := lo + float64(rest[0]%10)
		return query.Between(recipes.PropServings, lo, hi), rest[1:]
	case 5:
		inner, rest2 := decodeTerm(append([]byte{data[1] % 4}, rest...))
		if inner == nil {
			return nil, nil
		}
		return query.Not{P: inner}, rest2
	case 6:
		return query.Or{Ps: []query.Predicate{
			query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine(fuzzCuisines[v%len(fuzzCuisines)])},
			query.Keyword{Text: fuzzWords[v%len(fuzzWords)]},
		}}, rest
	default:
		return query.Between(recipes.PropPrepTime, 0, float64(v%120)), rest
	}
}

func decodeQuery(data []byte) query.Query {
	q := query.NewQuery()
	for len(q.Terms) < 4 {
		var p query.Predicate
		p, data = decodeTerm(data)
		if p == nil {
			break
		}
		q = q.With(p)
	}
	return q
}

func FuzzPlanEquivalence(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 0, 2, 1})
	f.Add([]byte{0, 0, 1, 0, 2, 0})             // fig1 shape
	f.Add([]byte{3, 0, 5, 2, 1})                // keyword + not
	f.Add([]byte{4, 2, 6, 1, 3, 7, 0})          // range + cuisine + keyword
	f.Add([]byte{6, 1, 0, 0, 4, 1, 9})          // or + type + range
	f.Add([]byte{5, 1, 2, 5, 2, 4, 1, 0, 3, 3}) // not-first ordering stress
	f.Add([]byte{7, 30, 1, 1, 3, 4, 5, 0, 1})   // prep-time range mix

	f.Fuzz(func(t *testing.T, data []byte) {
		w := fuzzSetup()
		if w.err != nil {
			t.Fatalf("fuzz corpus setup: %v", w.err)
		}
		q := decodeQuery(data)
		ctx := context.Background()

		want := w.mem.Engine().EvalContext(ctx, q).Items()
		if got := w.memPl.EvalContext(ctx, w.mem.Engine(), q).Items(); !reflect.DeepEqual(got, want) {
			t.Fatalf("in-memory planned %d items, naive %d (query %s)", len(got), len(want), q.Key())
		}
		if got := w.segPl.EvalContext(ctx, w.seg.Engine(), q).Items(); !reflect.DeepEqual(got, want) {
			t.Fatalf("segment planned %d items, naive %d (query %s)", len(got), len(want), q.Key())
		}
	})
}
