package query

import (
	"context"
	"time"

	"magnet/internal/itemset"
	"magnet/internal/obs"
)

// Per-stage observability for the query engine (the §4.2 evaluation
// stage of the navigation pipeline). Instruments are resolved once at
// package init; recording an event is a handful of atomic adds. Spans
// appear only when the caller's context carries a trace (obs.StartTrace),
// so magnet-eval -trace and per-request web traces see a pred.* tree
// while steady-state evaluation pays no span cost.
var (
	evalCount   = obs.NewCounter("query.eval.count")
	evalNS      = obs.NewHistogram("query.eval.ns")
	evalResults = obs.NewHistogram("query.eval.results")
)

// predKind names a predicate's kind for metrics and spans. The set is
// closed over the package's own predicate types; extensions report as
// "custom".
func predKind(p Predicate) string {
	switch p.(type) {
	case Property:
		return "property"
	case PathProperty:
		return "path"
	case Keyword:
		return "keyword"
	case TermMatch:
		return "term"
	case Range:
		return "range"
	case Not:
		return "not"
	case And:
		return "and"
	case Or:
		return "or"
	default:
		return "custom"
	}
}

// predInstrument pairs the per-kind counter and duration histogram.
type predInstrument struct {
	count *obs.Counter
	ns    *obs.Histogram
}

// predInstruments maps predicate kind → instruments. Built once at init
// and read-only afterwards, so hot-path lookups are a plain map read with
// no lock.
var predInstruments = func() map[string]predInstrument {
	kinds := []string{"property", "path", "keyword", "term", "range", "not", "and", "or", "custom"}
	m := make(map[string]predInstrument, len(kinds))
	for _, k := range kinds {
		m[k] = predInstrument{
			count: obs.NewCounter("query.pred." + k + ".count"),
			ns:    obs.NewHistogram("query.pred." + k + ".ns"),
		}
	}
	return m
}()

// EvalContext evaluates the query's conjunction with per-predicate-kind
// timing and result-set cardinality recording; when ctx carries a trace
// (obs.StartTrace) it also emits a query.eval span tree. This is the
// instrumented entry the session layer uses; Query.Eval remains the bare
// path for predicate implementations composing other predicates.
func (e *Engine) EvalContext(ctx context.Context, q Query) itemset.Set {
	ctx, sp := obs.StartSpan(ctx, "query.eval")
	start := time.Now()
	out := e.evalPred(ctx, And{Ps: q.Terms})
	evalNS.ObserveSince(start)
	evalCount.Inc()
	evalResults.Observe(int64(out.Len()))
	sp.SetInt("results", out.Len())
	sp.End()
	return out
}

// evalPred evaluates one predicate under instrumentation, recursing
// through the package's own composites so the span tree shows where a
// conjunction's time went. Composite semantics are shared with the bare
// Eval methods via evalAnd/evalOr.
func (e *Engine) evalPred(ctx context.Context, p Predicate) itemset.Set {
	kind := predKind(p)
	ctx, sp := obs.StartSpan(ctx, "pred."+kind)
	start := time.Now()
	var out itemset.Set
	switch t := p.(type) {
	case And:
		out = evalAnd(e, t.Ps,
			func(q Predicate) itemset.Set { return e.evalPred(ctx, q) },
			func(n Not, acc itemset.Set) itemset.Set { return e.evalNotWithin(ctx, n, acc) })
	case Or:
		out = evalOr(t.Ps, func(q Predicate) itemset.Set { return e.evalPred(ctx, q) })
	case Not:
		out = e.Universe().Minus(e.evalPred(ctx, t.P))
	default:
		out = p.Eval(e)
	}
	in := predInstruments[kind]
	in.count.Inc()
	in.ns.ObserveSince(start)
	sp.SetInt("results", out.Len())
	sp.End()
	return out
}

// evalNotWithin is evalAnd's lazy negation under instrumentation: the
// same pred.not counters and span as the eval path, but subtracting from
// the conjunction's accumulated result instead of the whole universe.
func (e *Engine) evalNotWithin(ctx context.Context, n Not, acc itemset.Set) itemset.Set {
	ctx, sp := obs.StartSpan(ctx, "pred.not")
	start := time.Now()
	out := acc.Intersect(e.Universe()).Minus(e.evalPred(ctx, n.P))
	in := predInstruments["not"]
	in.count.Inc()
	in.ns.ObserveSince(start)
	sp.SetInt("results", out.Len())
	sp.End()
	return out
}
