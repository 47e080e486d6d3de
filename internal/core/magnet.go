// Package core wires Magnet together: it owns the RDF graph, the schema
// annotations, the external text index, the semistructured vector space
// model, the query engine, and the analyst/advisor machinery, and exposes
// the session abstraction applications drive. This is the public face of
// the reproduction; examples and the CLI build exclusively on it.
//
// An instance indexes its repository once, in advance, and then serves
// that one item universe unchanged. There is one read path: Open compiles
// a graph builder into the same columnar image (segment.Data) that
// magnet-build writes and OpenSegments maps back, and both assemble the
// instance from that image — build, freeze, serve. To serve new data,
// rebuild and reopen.
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
// component, in nanoseconds (graph, items, text and vectors are compile
// steps, so only Open sets them). Gauges (not histograms) because startup
// happens once per process and the current value is the interesting one;
// visible in /debug/metrics alongside the startup.* trace spans.
var (
	startupLoadNS    = obs.NewGauge("startup.load.ns")
	startupGraphNS   = obs.NewGauge("startup.graph.ns")
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
	// canonical query key. 0 means plan.DefaultCacheSize entries; a
	// negative value disables planning and caching entirely, restoring the
	// naive evaluation path (output is byte-identical either way — the
	// planner only changes evaluation order and reuse).
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
	// itemIDs is the item universe on the dense-ID plane; the query
	// engine's universe (Not, empty queries) reads it without rehydration.
	itemIDs itemset.Set
	// pool is the instance's one concurrency budget (Options.Parallelism),
	// shared by every session.
	pool *par.Pool
	// planner is the cost-based conjunction planner and navigation-delta
	// cache every session step's query evaluation routes through; nil
	// when Options.PlanCache is negative (the naive path).
	planner *plan.Planner

	// set is the backing segment set when the instance was opened with
	// OpenSegments; nil for instances compiled in memory by Open.
	set *segment.Set
	// items is itemIDs rehydrated to sorted IRIs, once, on first use: the
	// open path must stay O(1) in the corpus.
	itemsOnce sync.Once
	items     []rdf.IRI
}

// Open builds a Magnet over the triples in b: it compiles them into the
// columnar image — the frozen graph, the item universe, the text index
// over the items' literal attributes, and every item's vector (§5.2's
// "indexing the data in advance") — and serves from it exactly as
// OpenSegments serves a compiled set. Later changes to b do not reach the
// instance.
func Open(b *rdf.Builder, opts Options) *Magnet {
	return OpenContext(context.Background(), b, opts)
}

// OpenContext is Open with startup tracing: when ctx carries a trace (see
// obs.StartTrace), each initialization component becomes a startup.* span;
// the startup.*.ns gauges are set either way.
func OpenContext(ctx context.Context, b *rdf.Builder, opts Options) *Magnet {
	start := time.Now()
	ctx, sp := obs.StartSpan(ctx, "startup.load")
	m := &Magnet{opts: opts, pool: par.New(opts.Parallelism)}
	g, d := m.compile(ctx, b)
	if err := m.assemble(ctx, g, &d); err != nil {
		panic("core: compiled image rejected: " + err.Error())
	}
	sp.End()
	startupLoadNS.Set(time.Since(start).Nanoseconds())
	return m
}

// compile freezes b and indexes the frozen graph in advance, returning the
// graph with the columnar image magnet-build writes to disk.
func (m *Magnet) compile(ctx context.Context, b *rdf.Builder) (*rdf.Graph, segment.Data) {
	d := segment.Data{IndexAllSubjects: m.opts.IndexAllSubjects}
	var g *rdf.Graph
	component(ctx, "startup.graph", startupGraphNS, func() {
		g = b.Freeze()
		d.Graph = g.Columns()
	})
	sch := schema.NewStore(g)
	var items []rdf.IRI
	component(ctx, "startup.items", startupItemsNS, func() {
		ids := chooseItems(g, m.opts.IndexAllSubjects)
		d.Items = ids.Slice()
		items = g.SubjectsFromIDs(d.Items)
	})
	component(ctx, "startup.text", startupTextNS, func() {
		tb := index.NewTextBuilder(m.opts.VSM.Analyzer)
		for _, it := range items {
			for _, p := range g.PredicatesOf(it) {
				if sch.Hidden(p) {
					continue
				}
				for _, o := range g.Objects(it, p) {
					lit, ok := o.(rdf.Literal)
					if !ok || (lit.Datatype != "" && lit.Datatype != rdf.XSDString) {
						continue
					}
					tb.Index(string(it), string(p), lit.Lexical)
				}
			}
		}
		d.Text = tb.Columns()
	})
	component(ctx, "startup.vectors", startupVectorsNS, func() {
		model := vsm.New(g, sch, m.opts.VSM)
		model.SetPool(m.pool)
		model.IndexAll(items)
		d.Vectors = model.Store().Columns()
		d.Ranges = numericRanges(model.Ranges())
	})
	return g, d
}

// assemble serves the instance from a compiled image over its frozen
// graph: the one path Open and OpenSegments share. Every step is O(1) in
// the corpus size; the stores read their columns lazily.
func (m *Magnet) assemble(ctx context.Context, g *rdf.Graph, d *segment.Data) error {
	m.opts.IndexAllSubjects = d.IndexAllSubjects
	text, err := index.FromTextColumns(m.opts.VSM.Analyzer, d.Text)
	if err != nil {
		return err
	}
	store, err := index.FromVectorColumns(d.Vectors)
	if err != nil {
		return err
	}
	ranges := make(map[string]vsm.Range, len(d.Ranges))
	for _, r := range d.Ranges {
		ranges[r.Key] = vsm.Range{Min: r.Min, Max: r.Max, Count: r.Count}
	}
	m.g = g
	m.sch = schema.NewStore(g)
	m.text = text
	m.model = vsm.FromStore(g, m.sch, store, ranges, m.opts.VSM)
	m.model.SetPool(m.pool)
	m.itemIDs = itemset.FromSorted(d.Items)
	component(ctx, "startup.engine", startupEngineNS, m.buildEngine)
	return nil
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

// chooseItems selects the indexed information objects on the dense-ID
// plane: subjects with an rdf:type, or every subject when none carry types
// (or when allSubjects is set). The class union runs entirely over
// subject-ID postings via one bitmap accumulator.
func chooseItems(g *rdf.Graph, allSubjects bool) itemset.Set {
	if !allSubjects {
		b := itemset.NewBits(g.SubjectTable().Len())
		for _, t := range g.ObjectsOf(rdf.Type) {
			cls, ok := t.(rdf.IRI)
			if !ok {
				continue
			}
			b.AddSet(g.SubjectIDSet(rdf.Type, cls))
		}
		if b.Count() > 0 {
			return b.Extract()
		}
	}
	return g.AllSubjectIDs()
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

// itemsSlice returns the item universe as sorted IRIs, rehydrating itemIDs
// on first use.
func (m *Magnet) itemsSlice() []rdf.IRI {
	m.itemsOnce.Do(func() {
		m.items = m.g.SubjectsFromIDs(m.itemIDs.Slice())
	})
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
