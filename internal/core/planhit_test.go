package core_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"magnet/internal/core"
	"magnet/internal/dataload"
	"magnet/internal/obs"
	"magnet/internal/simuser"
)

// minPlanHitRate is the share of plan-cache lookups the study walk must
// resolve without evaluating the query anew.
const minPlanHitRate = 0.5

// planHitRate replays the simuser study walk (40 sessions, 8 at a time,
// over 400 recipes) against a fresh instance built with opts, and returns
// the plan cache's hit rate over the run: exact hits plus parent deltas,
// over all lookups. Misses count every lookup that was not a hit,
// including those a delta then resolved, so lookups = hit + miss. The
// counters are process-wide, so the rate is the difference of snapshots
// taken around the walk.
func planHitRate(t *testing.T, opts core.Options) float64 {
	t.Helper()
	g, allSubjects, err := dataload.Load(dataload.Spec{Dataset: "recipes", Recipes: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts.IndexAllSubjects = allSubjects
	m := core.Open(g, opts)
	defer m.Close()
	r := simuser.NewReplay(m)
	if _, err := r.Target(); err != nil {
		t.Fatal(err)
	}

	hit, miss, delta := obs.Default.Counter("plan.cache.hit"), obs.Default.Counter("plan.cache.miss"), obs.Default.Counter("plan.cache.delta")
	hit0, miss0, delta0 := hit.Value(), miss.Value(), delta.Value()
	const sessions, concurrency = 40, 8
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < sessions; i = int(next.Add(1)) - 1 {
				r.Session(i, int64(1+i*7919))
			}
		}()
	}
	wg.Wait()
	hits, lookups := hit.Value()-hit0+delta.Value()-delta0, hit.Value()-hit0+miss.Value()-miss0
	t.Logf("plan cache: %d of %d lookups answered by hits or deltas", hits, lookups)
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

// TestPlanCacheHitRate fails when the navigation-delta cache stops
// absorbing the study walk's refine steps. A planner that silently stopped
// caching would still be byte-identical, so only the rate catches it.
func TestPlanCacheHitRate(t *testing.T) {
	rate := planHitRate(t, core.Options{})
	t.Logf("plan-cache hit rate %.3f (required %.3f)", rate, minPlanHitRate)
	if rate < minPlanHitRate {
		t.Fatalf("plan-cache hit rate %.3f below required %.3f", rate, minPlanHitRate)
	}
}

// TestPlanCacheHitRateNegativeControl runs the same walk with planning
// disabled, where the rate must read below the gate.
func TestPlanCacheHitRateNegativeControl(t *testing.T) {
	if rate := planHitRate(t, core.Options{PlanCache: -1}); rate >= minPlanHitRate {
		t.Fatalf("plan-cache hit rate %.3f with the cache disabled, want below %.3f", rate, minPlanHitRate)
	}
}
