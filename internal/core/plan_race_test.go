package core

import (
	"fmt"
	"sync"
	"testing"

	"magnet/internal/blackboard"
	"magnet/internal/datasets/recipes"
	"magnet/internal/query"
)

// TestPlanCacheSharedAcrossSessions is the planner's concurrency check:
// many sessions replaying the *same* navigation path against one shared
// Magnet all funnel through the same delta cache — every session past the
// first should be served hits and parent deltas, and under -race the LRU
// promotion, version refresh and shared frozen result sets must be clean.
// An identical walk against a planner-disabled instance is the per-step
// oracle.
func TestPlanCacheSharedAcrossSessions(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 300, Seed: 5})
	// The subtest keeps the name it had when an in-process shard count was
	// also swept; the unsharded walk is the only layout left.
	t.Run("shards=0", func(t *testing.T) {
		planned := Open(gb, Options{Parallelism: 4})
		defer planned.Close()
		naive := Open(gb, Options{Parallelism: 4, PlanCache: -1})
		defer naive.Close()

		// walk replays one study path and fingerprints every step's
		// item count, so a stale cached set at any step diverges.
		walk := func(m *Magnet, variant int) string {
			s := m.NewSession()
			out := ""
			note := func() { out += fmt.Sprintf("%d;", len(s.Items())) }
			s.Search("chicken")
			note()
			s.Refine(query.Property{
				Prop:  recipes.PropCuisine,
				Value: recipes.Cuisine([]string{"Mexican", "Greek"}[variant%2]),
			}, blackboard.Filter)
			note()
			s.Refine(query.Property{
				Prop:  recipes.PropIngredient,
				Value: recipes.Ingredient("Walnuts"),
			}, blackboard.Exclude)
			note()
			s.Back()
			note()
			s.RemoveConstraint(0)
			note()
			return out
		}

		wants := []string{walk(naive, 0), walk(naive, 1)}

		const sessions = 24
		got := make([]string, sessions)
		var wg sync.WaitGroup
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = walk(planned, i)
			}(i)
		}
		wg.Wait()

		for i, g := range got {
			if g != wants[i%2] {
				t.Errorf("session %d: planned walk %s, naive %s", i, g, wants[i%2])
			}
		}
	})
}
