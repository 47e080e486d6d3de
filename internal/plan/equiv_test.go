// Planned-vs-naive byte-identity: the planner's contract is that cache
// hits, parent deltas, and cost-ordered candidate-first evaluation all
// return exactly the set the unplanned engine returns — on the in-memory
// backing and on frozen segments. These tests drive both paths over the
// same corpus and compare item-for-item.
package plan_test

import (
	"context"
	"reflect"
	"testing"

	"magnet/internal/core"
	"magnet/internal/dataload"
	"magnet/internal/datasets/recipes"
	"magnet/internal/plan"
	"magnet/internal/query"
	"magnet/internal/rdf"
)

// planQueries covers every planner decision point: single terms (no
// reordering, no parent probe), selective and unselective conjunctions,
// negation (the lazy-complement path), ranges (span estimates and
// per-candidate probes), keywords (df estimates), disjunction, and the
// empty query (the universe).
func planQueries() map[string]query.Query {
	return map[string]query.Query{
		"empty":  query.NewQuery(),
		"single": query.NewQuery(query.TypeIs(recipes.ClassRecipe)),
		"fig1": query.NewQuery(
			query.TypeIs(recipes.ClassRecipe),
			query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Greek")},
			query.Property{Prop: recipes.PropIngredient, Value: recipes.Ingredient("Parsley")},
		),
		"negation": query.NewQuery(
			query.Keyword{Text: "chicken"},
			query.Not{P: query.Property{
				Prop:  recipes.PropIngredient,
				Value: recipes.Ingredient("Walnuts"),
			}},
		),
		"range": query.NewQuery(
			query.TypeIs(recipes.ClassRecipe),
			query.Between(recipes.PropServings, 2, 6),
		),
		"mixed": query.NewQuery(
			query.Between(recipes.PropPrepTime, 0, 45),
			query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Mexican")},
			query.Keyword{Text: "bean"},
		),
		"disjunction": query.NewQuery(
			query.TypeIs(recipes.ClassRecipe),
			query.Or{Ps: []query.Predicate{
				query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Greek")},
				query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Thai")},
			}},
		),
	}
}

// openPlanCorpus builds the in-memory serving instance the tests plan
// against. PlanCache is disabled so m's own evaluation stays the naive
// oracle; the planners under test are built explicitly.
func openPlanCorpus(t testing.TB) *core.Magnet {
	t.Helper()
	gb, allSubjects, err := dataload.Load(dataload.Spec{Dataset: "recipes", Recipes: 200, Seed: 1})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	m := core.Open(gb, core.Options{IndexAllSubjects: allSubjects, PlanCache: -1})
	t.Cleanup(m.Close)
	return m
}

func wantItems(e *query.Engine, q query.Query) []rdf.IRI {
	return e.EvalContext(context.Background(), q).Items()
}

func TestPlanEquivalenceInMemory(t *testing.T) {
	eng := openPlanCorpus(t).Engine()
	pl := plan.New(0)
	ctx := context.Background()
	for name, q := range planQueries() {
		want := wantItems(eng, q)
		// Three rounds walk every cache state: planned (cold), exact hit,
		// exact hit again after promotion.
		for round := 0; round < 3; round++ {
			got := pl.EvalContext(ctx, eng, q).Items()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s round %d: planned %d items, naive %d", name, round, len(got), len(want))
			}
		}
	}
}

// A refine sequence evaluates each prefix of a growing conjunction, so
// every non-first step resolves through the parent-delta probe; a back
// step is then a pure hit. Every answer must equal the naive one.
func TestPlanEquivalenceRefineDeltas(t *testing.T) {
	eng := openPlanCorpus(t).Engine()
	pl := plan.New(0)
	ctx := context.Background()

	steps := []query.Predicate{
		query.TypeIs(recipes.ClassRecipe),
		query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Greek")},
		query.Between(recipes.PropServings, 2, 8),
		query.Not{P: query.Property{Prop: recipes.PropIngredient, Value: recipes.Ingredient("Walnuts")}},
	}
	q := query.NewQuery()
	history := []query.Query{q}
	for i, p := range steps {
		q = q.With(p)
		history = append(history, q)
		got := pl.EvalContext(ctx, eng, q).Items()
		if want := wantItems(eng, q); !reflect.DeepEqual(got, want) {
			t.Fatalf("refine step %d: planned %d items, naive %d", i, len(got), len(want))
		}
	}
	for i := len(history) - 1; i >= 0; i-- {
		got := pl.EvalContext(ctx, eng, history[i]).Items()
		if want := wantItems(eng, history[i]); !reflect.DeepEqual(got, want) {
			t.Fatalf("back step to %d: planned %d items, naive %d", i, len(got), len(want))
		}
	}
}

func TestPlanEquivalenceSegments(t *testing.T) {
	mem := openPlanCorpus(t)
	dir := t.TempDir()
	if _, err := mem.WriteSegments(dir, "recipes", map[string]int64{"recipes": 200, "seed": 1}); err != nil {
		t.Fatalf("WriteSegments: %v", err)
	}
	seg, err := core.OpenSegments(dir, core.Options{PlanCache: -1})
	if err != nil {
		t.Fatalf("OpenSegments: %v", err)
	}
	t.Cleanup(seg.Close)

	eng := seg.Engine()
	pl := plan.New(0)
	ctx := context.Background()
	for name, q := range planQueries() {
		want := wantItems(mem.Engine(), q)
		if got := wantItems(eng, q); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: segment naive differs from in-memory naive — corpus mismatch", name)
		}
		for round := 0; round < 2; round++ {
			got := pl.EvalContext(ctx, eng, q).Items()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s round %d: segment-planned %d items, want %d", name, round, len(got), len(want))
			}
		}
	}
}
