// Package plan is Magnet's cost-based conjunction planner and
// navigation-delta cache. Navigation steps (§3.2–3.3, §4.1–4.2) change
// the current query one predicate at a time, so the executor rarely needs
// to evaluate a conjunction from scratch: the previous step's result is
// the parent of the new query (Refine) or already cached (Back, remove
// constraint). The planner layers two mechanisms over the query engine,
// both producing byte-identical results to the naive path:
//
//   - Conjunct ordering: per-predicate cardinality estimates from free
//     index statistics (cost.go) pick the cheapest term to evaluate
//     fully; every remaining term is driven candidate-first through
//     query.EvalWithinSet, so selective conjunctions never materialize a
//     large intermediate set and Not never materializes the universe.
//
//   - Delta caching: a bounded LRU (cache.go) of frozen result sets keyed
//     by the canonical Query.Key() (the graph is frozen, so results never
//     go stale). A Refine step then costs one EvalWithin against the
//     cached parent; Back and RemoveConstraint are pure hits.
//
// Correctness leans on conjunction algebra only: intersection commutes and
// (C ∩ U) \ E = C ∩ (U \ E).
package plan

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"time"

	"magnet/internal/itemset"
	"magnet/internal/obs"
	"magnet/internal/query"
)

var (
	planCacheHit   = obs.NewCounter("plan.cache.hit")
	planCacheMiss  = obs.NewCounter("plan.cache.miss")
	planCacheDelta = obs.NewCounter("plan.cache.delta")
	planCacheEvict = obs.NewCounter("plan.cache.evict")
	planReordered  = obs.NewCounter("plan.order.reordered")
	planEvalCount  = obs.NewCounter("plan.eval.count")
	planEvalNS     = obs.NewHistogram("plan.eval.ns")
	// planEstRatio records estimated-vs-actual cardinality of the chosen
	// first conjunct as (est+1)·100/(actual+1): 100 means spot-on, 200
	// a 2× overestimate, 50 a 2× underestimate.
	planEstRatio = obs.NewHistogram("plan.est.ratio")
)

// DefaultCacheSize is the delta-cache capacity when core.Options.PlanCache
// is zero. Navigation histories are shallow — a study task revisits a few
// dozen states — so a few hundred entries hold every state many concurrent
// sessions step through.
const DefaultCacheSize = 256

// Planner carries the delta cache for one serving instance. Safe for
// concurrent use by any number of sessions.
type Planner struct {
	cache *cache
}

// New builds a planner whose cache holds capacity entries: 0 means
// DefaultCacheSize, negative disables planning entirely (New returns nil,
// and a nil *Planner simply isn't routed to).
func New(capacity int) *Planner {
	if capacity < 0 {
		return nil
	}
	if capacity == 0 {
		capacity = DefaultCacheSize
	}
	return &Planner{cache: newCache(capacity)}
}

// EvalContext evaluates q through the planner: cache hit, parent delta,
// or a cost-ordered candidate-first evaluation, in that order. The result
// is byte-identical to e.EvalContext(ctx, q).
func (pl *Planner) EvalContext(ctx context.Context, e *query.Engine, q query.Query) query.Set {
	start := time.Now()
	out := pl.evalCached(ctx, e, q)
	planEvalCount.Inc()
	planEvalNS.ObserveSince(start)
	return e.FromIDs(out)
}

// evalCached resolves one evaluation against the cache: exact hit, then
// the parent-delta probe, then the planned evaluation.
func (pl *Planner) evalCached(ctx context.Context, e *query.Engine, q query.Query) itemset.Set {
	c := pl.cache
	ctx, sp := obs.StartSpan(ctx, "plan.eval")
	key := q.Key()
	if res, ok := c.get(key); ok {
		planCacheHit.Inc()
		sp.SetAttr("cache", "hit")
		sp.SetInt("results", res.Len())
		sp.End()
		return res
	}
	planCacheMiss.Inc()

	// Parent probe: a Refine step's new query is the cached previous step
	// plus one term, so try every leave-one-out subset and apply the
	// removed term within the smallest cached parent. Single-term queries
	// are excluded: their parent is the empty query (the universe), but a
	// lone term's naive result is E(t), not U ∩ E(t) — predicates may
	// match non-universe subjects — so the identity only holds from two
	// terms up, where the first term already anchors the result.
	if keys := q.TermKeys(); len(keys) >= 2 {
		bestIdx := -1
		var parent itemset.Set
		scratch := make([]string, len(keys)-1)
		for i := range keys {
			copy(scratch, keys[:i])
			copy(scratch[i:], keys[i+1:])
			if res, ok := c.get(query.KeyForTermKeys(scratch)); ok {
				if bestIdx < 0 || res.Len() < parent.Len() {
					bestIdx, parent = i, res
				}
			}
		}
		if bestIdx >= 0 {
			planCacheDelta.Inc()
			out := query.EvalWithinSet(e, q.Terms[bestIdx], parent)
			planCacheEvict.Add(uint64(c.put(key, out)))
			sp.SetAttr("cache", "delta")
			sp.SetInt("results", out.Len())
			sp.End()
			return out
		}
	}

	out := pl.plannedEval(ctx, e, q, sp)
	planCacheEvict.Add(uint64(c.put(key, out)))
	sp.SetAttr("cache", "planned")
	sp.SetInt("results", out.Len())
	sp.End()
	return out
}

// plannedEval is the from-scratch path: estimate every conjunct's
// cardinality, evaluate the cheapest fully (through the instrumented
// pred.* path, so traces keep their per-predicate tree), then drive the
// rest candidate-first in ascending estimated order. The chosen order is
// attached to the plan.eval span so magnet-eval -trace shows it.
func (pl *Planner) plannedEval(ctx context.Context, e *query.Engine, q query.Query, sp *obs.Span) itemset.Set {
	terms := q.Terms
	if len(terms) == 0 {
		return e.Universe().IDs()
	}
	order := make([]int, len(terms))
	for i := range order {
		order[i] = i
	}
	var costs []int
	if len(terms) > 1 {
		est := newEstimator(e)
		costs = make([]int, len(terms))
		for i, t := range terms {
			costs[i] = est.estimate(t)
		}
		sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] < costs[order[b]] })
		for i, o := range order {
			if o != i {
				planReordered.Inc()
				break
			}
		}
	}
	if sp != nil {
		sp.SetAttr("order", orderAttr(order))
	}
	out := e.Rebase(e.EvalPredContext(ctx, terms[order[0]]))
	if costs != nil {
		planEstRatio.Observe(ratioPercent(costs[order[0]], out.Len()))
	}
	for _, oi := range order[1:] {
		if out.IsEmpty() {
			return out
		}
		out = query.EvalWithinSet(e, terms[oi], out)
	}
	return out
}

// orderAttr renders a term order as "2,0,1" for span attributes; only
// called when a trace is live.
func orderAttr(order []int) string {
	var b strings.Builder
	for i, o := range order {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(o))
	}
	return b.String()
}

// ratioPercent maps (estimate, actual) to the planEstRatio scale.
func ratioPercent(est, actual int) int64 {
	return int64(est+1) * 100 / int64(actual+1)
}
