// Package core wires Magnet together: it owns the RDF graph, the schema
// annotations, the external text index, the semistructured vector space
// model, the query engine, and the analyst/advisor machinery, and exposes
// the session abstraction applications drive. This is the public face of
// the reproduction; examples and the CLI build exclusively on it.
//
// An instance indexes its repository once, in Open or OpenSegments, and
// then serves that one item universe unchanged: there is no incremental
// indexing after open. To serve new data, rebuild (magnet-build) and
// reopen.
package core

import (
	"context"
	"sync"
	"time"

	"magnet/internal/advisors"
	"magnet/internal/analysts"
	"magnet/internal/blackboard"
	"magnet/internal/index"
	"magnet/internal/itemset"
	"magnet/internal/obs"
	"magnet/internal/par"
	"magnet/internal/plan"
	"magnet/internal/query"
	"magnet/internal/rdf"
	"magnet/internal/schema"
	"magnet/internal/segment"
	"magnet/internal/vsm"
)

// Startup gauges: how long the last Open/OpenSegments took, total and per
// component, in nanoseconds. Gauges (not histograms) because startup happens
// once per process and the current value is the interesting one; visible in
// /debug/metrics alongside the startup.* trace spans.
var (
	startupLoadNS    = obs.NewGauge("startup.load.ns")
	startupItemsNS   = obs.NewGauge("startup.items.ns")
	startupTextNS    = obs.NewGauge("startup.text.ns")
	startupVectorsNS = obs.NewGauge("startup.vectors.ns")
	startupEngineNS  = obs.NewGauge("startup.engine.ns")
)

// component times one startup component into both a trace span (when ctx
// carries a trace) and its gauge.
func component(ctx context.Context, name string, g *obs.Gauge, f func()) {
	_, sp := obs.StartSpan(ctx, name)
	start := time.Now()
	f()
	g.Set(time.Since(start).Nanoseconds())
	sp.End()
}

// Options configures a Magnet instance.
type Options struct {
	// VSM tunes the vector space model (ablation switches included).
	VSM vsm.Options
	// Analysts builds the analyst set for new sessions;
	// analysts.DefaultSet when nil. The user study's baseline system passes
	// analysts.BaselineSet here.
	Analysts func(*analysts.Env) []blackboard.Analyst
	// AdvisorConfigs sizes the navigation pane;
	// advisors.DefaultConfigs() when nil.
	AdvisorConfigs []advisors.Config
	// IndexAllSubjects indexes every subject in the graph instead of only
	// those carrying an rdf:type (useful for schemaless imports like the
	// 50-states CSV of §6.1).
	IndexAllSubjects bool
	// SoftEmptyResults enables the fuzzy fallback for refinements that
	// would produce the empty result set (the paper's §6.3.1 suggestion:
	// "modify the queries to perform more fuzzily in the case when zero
	// results would have been returned otherwise").
	SoftEmptyResults bool
	// Parallelism sizes the instance's shared worker pool: analyst waves,
	// facet summarizing, similarity scans and batch indexing all fan out on
	// this one pool, so concurrent sessions (magnet-server) compose with
	// per-request parallelism instead of oversubscribing. 0 means
	// runtime.GOMAXPROCS(0); 1 runs the whole pipeline serially.
	Parallelism int
	// PlanCache sizes the navigation-delta cache behind the cost-based
	// query planner (internal/plan): cached result sets keyed by the
	// canonical query key, invalidated whenever the graph changes. 0 means
	// plan.DefaultCacheSize entries; a negative value disables planning and
	// caching entirely,
	// restoring the naive evaluation path (output is byte-identical
	// either way — the planner only changes evaluation order and reuse).
	PlanCache int
}

// Magnet is an instance of the navigation system over one repository.
type Magnet struct {
	g     *rdf.Graph
	sch   *schema.Store
	text  *index.TextIndex
	model *vsm.Model
	eng   *query.Engine
	opts  Options
	items []rdf.IRI
	// itemIDs mirrors items on the dense-ID plane; the query engine's
	// universe (Not, empty queries) reads it without rehydration.
	itemIDs itemset.Set
	// pool is the instance's one concurrency budget (Options.Parallelism),
	// shared by every session.
	pool *par.Pool
	// planner is the cost-based conjunction planner and navigation-delta
	// cache every session step's query evaluation routes through; nil
	// when Options.PlanCache is negative (the naive path).
	planner *plan.Planner

	// set is the backing segment set when the instance was opened with
	// OpenSegments; nil for in-memory instances. itemsOnce defers
	// materializing the []rdf.IRI item slice — the segment open path must
	// stay O(1) in the corpus, so items rehydrate on first use.
	set       *segment.Set
	itemsOnce sync.Once
}

// Open builds a Magnet over the graph: it chooses the item universe,
// populates the text index from the items' literal attributes, and indexes
// every item into the vector space model (§5.2's "indexing the data in
// advance").
func Open(g *rdf.Graph, opts Options) *Magnet {
	return OpenContext(context.Background(), g, opts)
}

// OpenContext is Open with startup tracing: when ctx carries a trace (see
// obs.StartTrace), each initialization component becomes a startup.* span;
// the startup.*.ns gauges are set either way.
func OpenContext(ctx context.Context, g *rdf.Graph, opts Options) *Magnet {
	start := time.Now()
	ctx, sp := obs.StartSpan(ctx, "startup.load")
	m := &Magnet{
		g:    g,
		sch:  schema.NewStore(g),
		opts: opts,
		pool: par.New(opts.Parallelism),
	}
	m.buildIndexes(ctx)
	component(ctx, "startup.engine", startupEngineNS, m.buildEngine)
	sp.End()
	startupLoadNS.Set(time.Since(start).Nanoseconds())
	return m
}

// buildEngine creates the query engine over the indexes, installs the
// item universe on the dense-ID plane, and builds the planner.
func (m *Magnet) buildEngine() {
	m.eng = query.NewEngine(m.g, m.sch, m.text, m.itemsSlice)
	m.eng.SetUniverseIDs(func() itemset.Set { return m.itemIDs })
	m.planner = plan.New(m.opts.PlanCache)
}

// evalQuery evaluates q through the planner when enabled, the plain
// instrumented evaluation otherwise.
func (m *Magnet) evalQuery(ctx context.Context, q query.Query) query.Set {
	if m.planner != nil {
		return m.planner.EvalContext(ctx, m.eng, q)
	}
	return m.eng.EvalContext(ctx, q)
}

// buildIndexes chooses the item universe and builds the text index and all
// vectors from the graph.
func (m *Magnet) buildIndexes(ctx context.Context) {
	component(ctx, "startup.items", startupItemsNS, func() {
		m.items = m.chooseItems()
	})
	component(ctx, "startup.text", startupTextNS, func() {
		m.text = index.NewTextIndex(m.opts.VSM.Analyzer)
		for _, it := range m.items {
			for _, p := range m.g.PredicatesOf(it) {
				if m.sch.Hidden(p) {
					continue
				}
				for _, o := range m.g.Objects(it, p) {
					lit, ok := o.(rdf.Literal)
					if !ok || (lit.Datatype != "" && lit.Datatype != rdf.XSDString) {
						continue
					}
					m.text.Index(string(it), string(p), lit.Lexical)
				}
			}
		}
	})
	component(ctx, "startup.vectors", startupVectorsNS, func() {
		m.model = vsm.New(m.g, m.sch, m.opts.VSM)
		m.model.SetPool(m.pool)
		m.model.IndexAll(m.items)
	})
}

// chooseItems selects the indexed information objects: subjects with an
// rdf:type, or every subject when none carry types (or when configured).
// It also records the universe on the dense-ID plane (m.itemIDs); the class
// union runs entirely over subject-ID postings via one bitmap accumulator.
func (m *Magnet) chooseItems() []rdf.IRI {
	if !m.opts.IndexAllSubjects {
		b := itemset.NewBits(m.g.Interner().Len())
		for _, t := range m.g.ObjectsOf(rdf.Type) {
			cls, ok := t.(rdf.IRI)
			if !ok {
				continue
			}
			b.AddSet(m.g.SubjectIDSet(rdf.Type, cls))
		}
		if b.Count() > 0 {
			m.itemIDs = b.Extract()
			return m.g.SubjectsFromIDs(m.itemIDs.Slice())
		}
	}
	m.itemIDs = m.g.AllSubjectIDs()
	return m.g.AllSubjects()
}

// Pool returns the instance's shared worker pool.
func (m *Magnet) Pool() *par.Pool { return m.pool }

// Close releases the instance's worker pool and, for segment-backed
// instances, unmaps the segment files. Sessions keep working after Close —
// every parallel seam degrades to its serial path — but segment-backed
// indexes must not be consulted after their mappings are gone.
func (m *Magnet) Close() {
	m.pool.Close()
	if m.set != nil {
		_ = m.set.Close()
	}
}

// Graph returns the underlying graph.
func (m *Magnet) Graph() *rdf.Graph { return m.g }

// Schema returns the annotation store.
func (m *Magnet) Schema() *schema.Store { return m.sch }

// Model returns the vector space model.
func (m *Magnet) Model() *vsm.Model { return m.model }

// Engine returns the query engine.
func (m *Magnet) Engine() *query.Engine { return m.eng }

// TextIndex returns the external text index.
func (m *Magnet) TextIndex() *index.TextIndex { return m.text }

// itemsSlice returns the item universe as IRIs, materializing it on first
// use for segment-backed instances (the open path only carries the dense-ID
// posting; rehydrating N IRIs would break the O(1) open budget).
func (m *Magnet) itemsSlice() []rdf.IRI {
	if m.set != nil {
		m.itemsOnce.Do(func() {
			m.items = m.g.SubjectsFromIDs(m.itemIDs.Slice())
		})
	}
	return m.items
}

// Items returns the indexed item universe, sorted.
func (m *Magnet) Items() []rdf.IRI {
	items := m.itemsSlice()
	out := make([]rdf.IRI, len(items))
	copy(out, items)
	return out
}

// NumItems returns the size of the item universe without materializing it
// (cheap even right after OpenSegments).
func (m *Magnet) NumItems() int { return m.itemIDs.Len() }

// Label returns the display label for a resource.
func (m *Magnet) Label(r rdf.IRI) string { return m.g.Label(r) }

// Labeler returns the query.Labeler over the graph.
func (m *Magnet) Labeler() query.Labeler {
	return func(r rdf.IRI) string { return m.g.Label(r) }
}

// ExplainSimilarityText renders the top-k shared coordinates behind the
// similarity of two items as human-readable lines ("cuisine = Greek",
// "title word apple", "sent (numeric closeness)"), making the fuzzy
// "similar by content" advisor inspectable.
func (m *Magnet) ExplainSimilarityText(a, b rdf.IRI, k int) []string {
	expl := m.model.ExplainSimilarity(a, b, k)
	out := make([]string, 0, len(expl))
	for _, wc := range expl {
		c := wc.Coord
		desc := vsm.PathLabel(c.Path, m.Label)
		switch c.Kind {
		case vsm.CoordObject:
			if iri, ok := c.Value.(rdf.IRI); ok {
				desc += " = " + m.Label(iri)
			} else {
				desc += " = " + m.g.TermLabel(c.Value)
			}
		case vsm.CoordWord:
			word := c.Word
			if m.text != nil {
				word = m.text.Surface(c.Word)
			}
			desc += " word " + word
		case vsm.CoordNumeric:
			desc += " (numeric closeness)"
		}
		out = append(out, desc)
	}
	return out
}
