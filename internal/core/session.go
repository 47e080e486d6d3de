package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"

	"magnet/internal/advisors"
	"magnet/internal/analysts"
	"magnet/internal/blackboard"
	"magnet/internal/facets"
	"magnet/internal/history"
	"magnet/internal/itemset"
	"magnet/internal/obs"
	"magnet/internal/query"
	"magnet/internal/rdf"
)

// Session-step observability: how often each navigation step runs and how
// long it takes end to end (query evaluation, pane assembly, overview).
var (
	stepQueryCount    = obs.NewCounter("session.query.count")
	stepQueryNS       = obs.NewHistogram("session.query.ns")
	stepPaneCount     = obs.NewCounter("session.pane.count")
	stepPaneNS        = obs.NewHistogram("session.pane.ns")
	stepOverviewCount = obs.NewCounter("session.overview.count")
	stepOverviewNS    = obs.NewHistogram("session.overview.ns")
)

// stepTimer times one navigation step for the flight recorder. Every step
// runs under a trace: as a child span when the ambient context already
// carries one (a web request), otherwise as its own root — which the
// timer hands to obs.Records at the end, so steps are captured even when
// no HTTP middleware owns the trace (magnet-eval, the CLI, tests).
type stepTimer struct {
	ctx  context.Context
	sp   *obs.Span
	root bool
	name string
}

// startStep begins a navigation step under the session's ambient context.
func (s *Session) startStep(name string) (context.Context, *stepTimer) {
	ctx, sp, root := obs.StartAlways(s.ctx, name)
	return ctx, &stepTimer{ctx: ctx, sp: sp, root: root, name: name}
}

// finish ends the step's span, records the per-step metrics with the
// trace ID as the histogram exemplar, feeds owned roots to the flight
// recorder, and warns (with the joining trace ID) when the step blew the
// slow threshold — every refinement is supposed to feel instant.
func (st *stepTimer) finish(count *obs.Counter, ns *obs.Histogram) {
	st.sp.End()
	dur := st.sp.Duration()
	count.Inc()
	ns.ObserveExemplar(int64(dur), obs.TraceID(st.ctx))
	if st.root {
		obs.Records.Record(st.sp)
	}
	if dur >= obs.Records.SlowThreshold() {
		slog.Warn("slow navigation step",
			"step", st.name,
			"dur", dur,
			"trace", obs.TraceID(st.ctx))
	}
}

// Session is one user's navigation session: the current view, the history
// tracker, and the analyst registry producing the navigation pane. Sessions
// are not safe for concurrent use (each models a single user).
type Session struct {
	m        *Magnet
	registry *blackboard.Registry
	tracker  *history.Tracker
	cfgs     []advisors.Config
	views    map[string]blackboard.View
	current  blackboard.View
	compound *compoundState

	// ctx is the ambient context session steps run under; when it carries a
	// trace (obs.StartTrace) every step emits a span tree. Defaults to
	// context.Background().
	ctx context.Context
}

// NewSession starts a session at the all-items collection.
func (m *Magnet) NewSession() *Session {
	s := &Session{
		m:       m,
		tracker: history.NewTracker(),
		views:   make(map[string]blackboard.View),
		cfgs:    m.opts.AdvisorConfigs,
		ctx:     context.Background(),
	}
	if s.cfgs == nil {
		s.cfgs = advisors.DefaultConfigs()
	}
	env := &analysts.Env{
		Graph:      m.g,
		Schema:     m.sch,
		Model:      m.model,
		Engine:     m.eng,
		Text:       m.text,
		Tracker:    s.tracker,
		LookupView: s.lookupView,
	}
	build := m.opts.Analysts
	if build == nil {
		build = analysts.DefaultSet
	}
	s.registry = blackboard.NewRegistry(m.pool, build(env)...)
	s.goToQuery(query.NewQuery())
	return s
}

func (s *Session) lookupView(key string) (blackboard.View, bool) {
	v, ok := s.views[key]
	return v, ok
}

// Current returns the current view.
func (s *Session) Current() blackboard.View { return s.current }

// Items returns the items of the current view: the collection, or the
// single item as a one-element slice.
func (s *Session) Items() []rdf.IRI {
	if s.current.IsItem() {
		return []rdf.IRI{s.current.Item}
	}
	out := make([]rdf.IRI, len(s.current.Collection))
	copy(out, s.current.Collection)
	return out
}

// itemIDs returns Items on the dense-ID plane.
func (s *Session) itemIDs() itemset.Set {
	if s.current.IsItem() {
		return s.m.g.SubjectIDsOf([]rdf.IRI{s.current.Item})
	}
	return s.current.IDs
}

// SetContext sets the ambient context for subsequent session steps; pass a
// context from obs.StartTrace to capture a span tree for one navigation
// step. A nil ctx resets to context.Background(). Like all session state,
// this is single-user: callers serializing access to the session (e.g. the
// web layer) must set and reset it under the same lock.
func (s *Session) SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.ctx = ctx
}

func (s *Session) goTo(v blackboard.View) {
	s.current = v
	key := v.Key()
	s.views[key] = v
	s.tracker.RecordVisit(key)
}

func (s *Session) goToQuery(q query.Query) {
	ctx, st := s.startStep("session.query")
	set := s.m.eng.EvalContext(ctx, q)
	items := set.Items()
	s.tracker.PushQuery(q)
	s.goTo(blackboard.CollectionView(q, items, s.m.eng.Rebase(set)))
	st.sp.SetInt("items", len(items))
	st.finish(stepQueryCount, stepQueryNS)
}

// Search starts a fresh keyword query (the toolbar of §3.1: "a search may
// often be initiated by specifying keywords, as this requires the least
// cognitive effort").
func (s *Session) Search(keywords string) {
	s.goToQuery(query.NewQuery(query.Keyword{Text: keywords}))
}

// SearchWithin refines the current collection with a keyword constraint
// (the navigation pane's 'Query' affordance).
func (s *Session) SearchWithin(keywords string) {
	s.goToQuery(s.current.Query.With(query.Keyword{Text: keywords}))
}

// OpenItem navigates to a single item's view.
func (s *Session) OpenItem(item rdf.IRI) {
	s.goTo(blackboard.ItemView(item))
}

// GoHome navigates to the unconstrained all-items collection.
func (s *Session) GoHome() {
	s.goToQuery(query.NewQuery())
}

// Refine adds a constraint to the current query (Filter), removes matching
// items (Exclude), or broadens the collection (Expand) — §4.1's Refine
// Collections semantics. On a fixed (materialized) collection the predicate
// filters the members directly, since there is no query to extend.
func (s *Session) Refine(p query.Predicate, mode blackboard.RefineMode) {
	prev := s.itemIDs()
	if s.current.Fixed {
		s.refineFixed(p, mode)
	} else {
		q := s.current.Query
		switch mode {
		case blackboard.Filter:
			q = q.With(p)
		case blackboard.Exclude:
			q = q.With(query.Not{P: p})
		case blackboard.Expand:
			if q.IsEmpty() {
				q = query.NewQuery(p)
			} else {
				q = query.NewQuery(query.Or{Ps: []query.Predicate{query.And{Ps: q.Terms}, p}})
			}
		}
		s.goToQuery(q)
	}
	if s.m.opts.SoftEmptyResults && len(s.current.Collection) == 0 && mode != blackboard.Expand {
		s.softRefine(p, mode, prev)
	}
}

func (s *Session) refineFixed(p query.Predicate, mode blackboard.RefineMode) {
	matches := p.Eval(s.m.eng)
	var items []rdf.IRI
	for _, it := range s.current.Collection {
		in := matches.Has(it)
		if (mode == blackboard.Filter && in) || (mode == blackboard.Exclude && !in) {
			items = append(items, it)
		}
	}
	if mode == blackboard.Expand {
		items = append([]rdf.IRI{}, s.current.Collection...)
		seen := s.m.eng.NewSet(items...)
		for _, it := range matches.Items() {
			if !seen.Has(it) {
				items = append(items, it)
			}
		}
	}
	name := s.current.Name + " · " + p.Describe(s.m.Labeler())
	s.goTo(s.fixedView(name, items))
}

// fixedView returns the view of a materialized collection, putting its
// members on the ID plane once, as the view is entered.
func (s *Session) fixedView(name string, items []rdf.IRI) blackboard.View {
	return blackboard.FixedView(name, items, s.m.g.SubjectIDsOf(items))
}

// RemoveConstraint drops the i-th query constraint (the '✕' of §3.2).
func (s *Session) RemoveConstraint(i int) {
	s.goToQuery(s.current.Query.Without(i))
}

// NegateConstraint inverts the i-th query constraint (the context-menu
// negation of §3.2).
func (s *Session) NegateConstraint(i int) {
	s.goToQuery(s.current.Query.Negate(i))
}

// ApplyRange refines by a numeric range (the Figure 5 widget's selection);
// nil bounds leave that side open.
func (s *Session) ApplyRange(prop rdf.IRI, min, max *float64) {
	s.goToQuery(s.current.Query.With(query.Range{Prop: prop, Min: min, Max: max}))
}

// Back undoes the last refinement (History advisor's Refinement trail). It
// reports whether there was anywhere to go back to.
func (s *Session) Back() bool {
	q, ok := s.tracker.Back()
	if !ok {
		return false
	}
	set := s.m.eng.EvalContext(s.ctx, q)
	s.goTo(blackboard.CollectionView(q, set.Items(), s.m.eng.Rebase(set)))
	return true
}

// ErrNoAction reports an Apply call with a nil or unsupported action.
var ErrNoAction = errors.New("core: suggestion carries no directly applicable action")

// Apply executes a suggestion's action: the dispatch behind clicking a
// navigation suggestion. ShowRange and ShowSearch are interactive — the
// caller collects parameters and calls ApplyRange or SearchWithin instead.
func (s *Session) Apply(a blackboard.Action) error {
	switch act := a.(type) {
	case blackboard.Refine:
		s.Refine(act.Add, act.Mode)
	case blackboard.GoToCollection:
		s.goTo(s.fixedView(act.Title, act.Items))
	case blackboard.GoToItem:
		s.OpenItem(act.Item)
	case blackboard.ReplaceQuery:
		s.goToQuery(act.Query)
	case blackboard.ShowRange, blackboard.ShowSearch, blackboard.ShowOverview:
		return fmt.Errorf("%w: interactive action %T needs parameters", ErrNoAction, a)
	case nil:
		return ErrNoAction
	default:
		return fmt.Errorf("%w: unknown action %T", ErrNoAction, a)
	}
	return nil
}

// Board runs the analysts over the current view and returns the raw
// blackboard (tests and power tools).
func (s *Session) Board() *blackboard.Board {
	return s.registry.RunContext(s.ctx, s.current)
}

// Pane runs the analysts and assembles the navigation pane for the current
// view (the left side of Figure 1).
func (s *Session) Pane() advisors.Pane {
	ctx, st := s.startStep("session.pane")
	board := s.registry.RunContext(ctx, s.current)
	_, bsp := obs.StartSpan(ctx, "advisors.build")
	pane := advisors.Build(s.current.Query, s.m.Labeler(), board, s.cfgs)
	bsp.End()
	st.sp.SetInt("suggestions", board.Len())
	st.finish(stepPaneCount, stepPaneNS)
	return pane
}

// Overview computes the large-collection facet overview (Figure 2): value
// histograms per property, ordered by usefulness, values by count.
func (s *Session) Overview(maxValues int) []facets.Facet {
	ctx, st := s.startStep("session.overview")
	opts := facets.Options{
		MaxValues: maxValues,
		ByCount:   true,
		Pool:      s.m.pool,
	}
	fs := facets.SummarizeContext(ctx, s.m.g, s.m.sch, s.itemIDs(), opts)
	st.sp.SetInt("facets", len(fs))
	st.finish(stepOverviewCount, stepOverviewNS)
	return fs
}
