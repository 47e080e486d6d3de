// Package blackboard implements Magnet's blackboard model (paper §4.3,
// after Nii's blackboard architecture): analysts are "triggered by the
// framework based on the currently viewed [view] and suggest a particular
// kind of navigation refinement by writing it on the blackboard"; the
// framework then "collects the recommendations from the blackboard and
// presents them with the associated navigation advisors to the user".
//
// Analysts may also be "triggered by results from other analysts": after
// the primary round, analysts implementing Reactor run over the posted
// suggestions and may post more.
package blackboard

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"
	"time"

	"magnet/internal/facets"
	"magnet/internal/obs"
	"magnet/internal/par"
	"magnet/internal/query"
	"magnet/internal/rdf"
)

// Advisor names: each suggestion is published under the advisor that
// presents its kind of navigation step (§4.1).
const (
	// AdvisorRelated is the "Related Items" advisor (sharing a property,
	// similar by content, similar by visit).
	AdvisorRelated = "Related Items"
	// AdvisorRefine is the "Refine Collections" advisor.
	AdvisorRefine = "Refine Collections"
	// AdvisorModify is the "Modify" advisor (contrary constraints, related
	// collections).
	AdvisorModify = "Modify"
	// AdvisorHistory is the "History" advisor (previous, refinement trail).
	AdvisorHistory = "History"
	// AdvisorQuery is the within-collection query affordance shown under
	// 'Query' in the navigation pane.
	AdvisorQuery = "Query"
)

// View is what the user is currently looking at: a single item, a
// collection produced by a query, or a fixed (materialized) collection such
// as a similar-items result. Analysts trigger on its shape.
type View struct {
	// Item is set for single-item views.
	Item rdf.IRI
	// Collection is set for collection views (may be empty but non-nil).
	Collection []rdf.IRI
	// Query is the query whose evaluation produced Collection (empty for
	// fixed collections).
	Query query.Query
	// Fixed marks a materialized collection not backed by a query.
	Fixed bool
	// Name titles fixed collections and identifies them in history.
	Name string
}

// ItemView returns a view of a single item.
func ItemView(item rdf.IRI) View { return View{Item: item} }

// CollectionView returns a view of a query's result collection.
func CollectionView(q query.Query, items []rdf.IRI) View {
	if items == nil {
		items = []rdf.IRI{}
	}
	return View{Collection: items, Query: q}
}

// FixedView returns a view of a materialized collection (e.g. the output of
// a similarity analyst's "arbitrary action").
func FixedView(name string, items []rdf.IRI) View {
	if items == nil {
		items = []rdf.IRI{}
	}
	return View{Collection: items, Fixed: true, Name: name}
}

// IsItem reports whether the view shows a single item.
func (v View) IsItem() bool { return v.Item != "" }

// IsCollection reports whether the view shows a collection.
func (v View) IsCollection() bool { return v.Collection != nil }

// Key returns a stable identity for the view, used by the history tracker.
func (v View) Key() string {
	if v.IsItem() {
		return "item:" + string(v.Item)
	}
	if v.Fixed {
		return "fixed:" + v.Name
	}
	return v.Query.Key()
}

// Action is what happens when the user selects a suggestion. The concrete
// types below cover the paper's step kinds; the navigation engine switches
// on them.
type Action interface{ isAction() }

// Refine adds a constraint to the current query (filter; Exclude filters
// the complement; Expand broadens with OR, §4.1 Refine Collections).
type Refine struct {
	Add query.Predicate
	// Mode selects filter/exclude/expand.
	Mode RefineMode
}

// RefineMode selects how a refinement predicate combines with the query.
type RefineMode int

const (
	// Filter keeps only matching items (AND).
	Filter RefineMode = iota
	// Exclude removes matching items (AND NOT).
	Exclude
	// Expand broadens the collection to include matching items (OR with
	// the whole current query).
	Expand
)

func (Refine) isAction() {}

// GoToCollection navigates to a fixed collection of items (e.g. similar
// items found by a learning algorithm; "at the most general some analysts
// specify arbitrary action", here materialized results).
type GoToCollection struct {
	Title string
	Items []rdf.IRI
}

func (GoToCollection) isAction() {}

// GoToItem navigates to a single item.
type GoToItem struct {
	Item rdf.IRI
}

func (GoToItem) isAction() {}

// ReplaceQuery replaces the whole query (contrary constraints, history).
type ReplaceQuery struct {
	Query query.Query
}

func (ReplaceQuery) isAction() {}

// ShowRange presents a numeric range widget with a query-preview histogram
// (Figure 5); selection then issues a query.Range refinement.
type ShowRange struct {
	Prop      rdf.IRI
	Histogram facets.Histogram
}

func (ShowRange) isAction() {}

// ShowSearch presents a keyword-search box scoped to the current collection
// (the 'Query' affordance in the navigation pane, §4.3); submitting issues a
// query.Keyword refinement.
type ShowSearch struct{}

func (ShowSearch) isAction() {}

// ShowOverview presents the large-collection overview interface (Figure 2),
// suggested when the navigation pane alone is inadequate (§3.1).
type ShowOverview struct{}

func (ShowOverview) isAction() {}

// Suggestion is one navigation recommendation posted on the blackboard.
type Suggestion struct {
	// Advisor is the presenting advisor (one of the Advisor* constants or
	// an extension).
	Advisor string
	// Group clusters suggestions within an advisor ("the interface groups
	// suggestions by properties", §3.2) — typically a property label.
	Group string
	// Title is the display text.
	Title string
	// Detail optionally annotates the title (e.g. an occurrence count).
	Detail string
	// Weight is the analyst-provided information-retrieval weight used for
	// selection (§4.1: "advisors use the analyst-provided information
	// retrieval weights ... to select the navigation suggestions").
	Weight float64
	// Action is performed when the user picks the suggestion.
	Action Action
	// Key de-duplicates suggestions across analysts.
	Key string
	// Analyst records the posting analyst (for debugging/tests).
	Analyst string
}

// Board is the shared blackboard. It is safe for concurrent posting.
type Board struct {
	mu sync.Mutex
	// suggestions is the posting order of accepted suggestions; guarded by mu.
	suggestions []Suggestion
	// seen dedupes suggestion keys (first poster wins); guarded by mu.
	seen map[string]bool
	// byAdvisor memoizes the ByAdvisor grouping; nil until computed,
	// invalidated by any accepted post; guarded by mu.
	byAdvisor map[string][]Suggestion
}

// NewBoard returns an empty board.
func NewBoard() *Board {
	return &Board{seen: make(map[string]bool)}
}

// Post writes a suggestion on the board. Suggestions with a duplicate
// non-empty Key are dropped (first poster wins).
func (b *Board) Post(s Suggestion) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.Key != "" {
		if b.seen[s.Key] {
			return
		}
		b.seen[s.Key] = true
	}
	b.suggestions = append(b.suggestions, s)
	b.byAdvisor = nil
}

// Merge posts src's suggestions onto b in src's posting order, applying
// b's dedup (first-merged poster wins), and reports how many were
// accepted. Merging per-analyst private boards in registration order
// reproduces a serial run's board exactly, whatever schedule produced the
// private boards.
func (b *Board) Merge(src *Board) int {
	ss := src.Suggestions()
	b.mu.Lock()
	defer b.mu.Unlock()
	accepted := 0
	for _, s := range ss {
		if s.Key != "" {
			if b.seen[s.Key] {
				continue
			}
			b.seen[s.Key] = true
		}
		b.suggestions = append(b.suggestions, s)
		accepted++
	}
	if accepted > 0 {
		b.byAdvisor = nil
	}
	return accepted
}

// Suggestions returns a copy of everything posted, in posting order.
func (b *Board) Suggestions() []Suggestion {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Suggestion, len(b.suggestions))
	copy(out, b.suggestions)
	return out
}

// Len returns the number of accepted suggestions.
func (b *Board) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.suggestions)
}

// ByAdvisor returns posted suggestions grouped by advisor name, in
// posting order within each group. The grouping is memoized until the
// next accepted post; the returned map is the caller's, but the slices
// share the cache's backing storage (capacity-clipped, so appending is
// safe) — treat the elements as read-only.
func (b *Board) ByAdvisor() map[string][]Suggestion {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.byAdvisor == nil {
		m := make(map[string][]Suggestion)
		for _, s := range b.suggestions {
			m[s.Advisor] = append(m[s.Advisor], s)
		}
		b.byAdvisor = m
	}
	out := make(map[string][]Suggestion, len(b.byAdvisor))
	for adv, ss := range b.byAdvisor {
		out[adv] = ss[:len(ss):len(ss)]
	}
	return out
}

// Analyst is an algorithmic unit posting suggestions for a view (§4.3).
type Analyst interface {
	// Name identifies the analyst.
	Name() string
	// Triggered reports whether the analyst fires for the view (the
	// "triggered when a user navigates to items of a given type"
	// mechanism).
	Triggered(v View) bool
	// Suggest posts the analyst's recommendations.
	Suggest(v View, b *Board)
}

// Reactor is an analyst additionally triggered "by results from other
// analysts": after the primary round it receives everything posted so far
// and may post more.
type Reactor interface {
	Analyst
	React(v View, posted []Suggestion, b *Board)
}

// Blackboard-stage observability. The per-run instruments are package
// level; per-analyst instruments are resolved once at Register time (the
// registry lookup involves a lock, so it must not sit on the run path).
var (
	runCount       = obs.NewCounter("blackboard.run.count")
	runNS          = obs.NewHistogram("blackboard.run.ns")
	runSuggestions = obs.NewHistogram("blackboard.run.suggestions")
	primaryRounds  = obs.NewCounter("blackboard.rounds.primary")
	reactorRounds  = obs.NewCounter("blackboard.rounds.reactor")
	postedTotal    = obs.NewCounter("blackboard.suggestions.posted")
)

// analystInstrument carries one analyst's metric handles.
type analystInstrument struct {
	runs        *obs.Counter
	ns          *obs.Histogram
	suggestions *obs.Counter
}

// metricSlug converts an analyst's display name to a metric path segment:
// lowercase, with runs of non-alphanumerics collapsed to '_'
// ("Related Items" → "related_items").
func metricSlug(name string) string {
	var b strings.Builder
	pendingSep := false
	for _, r := range strings.ToLower(name) {
		alnum := (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')
		if !alnum {
			pendingSep = b.Len() > 0
			continue
		}
		if pendingSep {
			b.WriteByte('_')
			pendingSep = false
		}
		b.WriteRune(r)
	}
	return b.String()
}

func newAnalystInstrument(name string) analystInstrument {
	prefix := "blackboard.analyst." + metricSlug(name)
	// Per-analyst metric names are dynamic, so these cannot be hoisted to
	// package-level vars; the registry memoizes by name and this runs once
	// per Registry construction, not per event.
	return analystInstrument{
		runs:        obs.NewCounter(prefix + ".runs"),        //magnet-vet:ignore obshygiene // dynamic name, init-time only
		ns:          obs.NewHistogram(prefix + ".ns"),        //magnet-vet:ignore obshygiene // dynamic name, init-time only
		suggestions: obs.NewCounter(prefix + ".suggestions"), //magnet-vet:ignore obshygiene // dynamic name, init-time only
	}
}

// Registry holds the configured analysts and runs them over views.
type Registry struct {
	mu sync.RWMutex
	// analysts is the registered advisor list; guarded by mu.
	analysts []Analyst
	// instruments holds per-analyst metric handles, parallel to analysts;
	// guarded by mu.
	instruments []analystInstrument
	// pool bounds analyst fan-out; nil runs every wave serially. Guarded
	// by mu.
	pool *par.Pool
}

// NewRegistry returns a registry with the given analysts.
func NewRegistry(analysts ...Analyst) *Registry {
	r := &Registry{}
	r.Register(analysts...)
	return r
}

// Register appends analysts (an "easily extensible manner to allow schema
// experts to support new search activities", §4.1).
func (r *Registry) Register(analysts ...Analyst) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.analysts = append(r.analysts, analysts...)
	for _, a := range analysts {
		r.instruments = append(r.instruments, newAnalystInstrument(a.Name()))
	}
}

// SetPool sets the worker pool analyst waves fan out on. A nil pool (the
// default) runs every wave serially; either way the board output is
// identical — parallel waves post to private boards merged in
// registration order.
func (r *Registry) SetPool(p *par.Pool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pool = p
}

// Names returns the registered analyst names, in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.analysts))
	for i, a := range r.analysts {
		out[i] = a.Name()
	}
	return out
}

// Run triggers all matching analysts over the view, then gives reactors one
// round over the posted results, and returns the filled board.
func (r *Registry) Run(v View) *Board {
	return r.RunContext(context.Background(), v)
}

// RunContext is Run with per-stage observability: every triggered analyst
// is timed (metrics always; an analyst.<name> span when ctx carries a
// trace) with its accepted-suggestion count recorded, and the primary and
// reactor rounds are counted separately (the §4.3 "triggered by results
// from other analysts" round).
//
// When the registry has a pool, the primary round and the reactor round
// each run as one parallel wave: every analyst posts to a private board
// and the private boards are merged in registration order, so the merged
// board — suggestion order, dedup outcomes, per-analyst accepted counts —
// is byte-identical to a serial run.
func (r *Registry) RunContext(ctx context.Context, v View) *Board {
	r.mu.RLock()
	analysts := make([]Analyst, len(r.analysts))
	copy(analysts, r.analysts)
	instruments := make([]analystInstrument, len(r.instruments))
	copy(instruments, r.instruments)
	pool := r.pool
	r.mu.RUnlock()

	ctx, sp := obs.StartSpan(ctx, "blackboard.run")
	start := time.Now()
	b := NewBoard()
	var triggered []int
	for i, a := range analysts {
		if a.Triggered(v) {
			triggered = append(triggered, i)
		}
	}
	runWave(ctx, pool, "analyst.", v, nil, analysts, instruments, triggered, b)
	primaryRounds.Inc()
	if len(triggered) > 0 {
		var reactors []int
		for _, i := range triggered {
			if _, ok := analysts[i].(Reactor); ok {
				reactors = append(reactors, i)
			}
		}
		if len(reactors) > 0 {
			posted := b.Suggestions()
			runWave(ctx, pool, "react.", v, posted, analysts, instruments, reactors, b)
			reactorRounds.Inc()
		}
	}
	total := b.Len()
	runCount.Inc()
	runNS.ObserveSince(start)
	runSuggestions.Observe(int64(total))
	postedTotal.Add(uint64(total))
	sp.SetInt("analysts", len(triggered))
	sp.SetInt("suggestions", total)
	sp.End()
	return b
}

// runWave runs one round of analysts — concurrently when the pool allows —
// each posting to a private board, then merges the private boards into dst
// in registration order. A non-nil posted slice selects the reactor round
// (every idx entry must then be a Reactor) and carries the pre-round
// snapshot. Per-analyst accepted counts (metric and span attr) are
// recorded at merge time, so dedup races cannot skew them. An analyst
// panic propagates as *par.PanicError, preserving the serial contract
// that a broken analyst fails the whole run; on context cancellation the
// wave merges what completed and returns.
func runWave(ctx context.Context, pool *par.Pool, spanPrefix string, v View, posted []Suggestion, analysts []Analyst, instruments []analystInstrument, idx []int, dst *Board) {
	if len(idx) == 0 {
		return
	}
	boards := make([]*Board, len(idx))
	spans := make([]*obs.Span, len(idx))
	err := par.ForN(ctx, pool, len(idx), func(k int) {
		i := idx[k]
		a := analysts[i]
		_, asp := obs.StartSpan(ctx, spanPrefix+a.Name())
		priv := NewBoard()
		start := time.Now()
		if posted == nil {
			a.Suggest(v, priv)
		} else {
			a.(Reactor).React(v, posted, priv)
		}
		instruments[i].runs.Inc()
		instruments[i].ns.ObserveSince(start)
		asp.End()
		boards[k] = priv
		spans[k] = asp
	})
	for k, priv := range boards {
		if priv == nil {
			continue
		}
		accepted := dst.Merge(priv)
		if accepted > 0 {
			instruments[idx[k]].suggestions.Add(uint64(accepted))
		}
		spans[k].SetInt("suggestions", accepted)
	}
	var pe *par.PanicError
	if errors.As(err, &pe) {
		panic(pe)
	}
}

// SelectTop returns up to n suggestions with the highest weights from the
// slice, re-sorted alphabetically by title for presentation (§4.1: advisors
// select by weight, then suggestions are "presented in the interface
// typically sorted in an alphabetical order"). The returned omitted count
// feeds the interface's '...' affordance.
func SelectTop(ss []Suggestion, n int) (selected []Suggestion, omitted int) {
	if n <= 0 || len(ss) == 0 {
		return nil, len(ss)
	}
	byWeight := make([]Suggestion, len(ss))
	copy(byWeight, ss)
	sort.SliceStable(byWeight, func(i, j int) bool {
		if byWeight[i].Weight != byWeight[j].Weight {
			return byWeight[i].Weight > byWeight[j].Weight
		}
		return byWeight[i].Title < byWeight[j].Title
	})
	if len(byWeight) > n {
		omitted = len(byWeight) - n
		byWeight = byWeight[:n]
	}
	sort.SliceStable(byWeight, func(i, j int) bool {
		return byWeight[i].Title < byWeight[j].Title
	})
	return byWeight, omitted
}
