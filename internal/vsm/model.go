package vsm

import (
	"context"
	"errors"
	"math"
	"sort"

	"magnet/internal/index"
	"magnet/internal/par"
	"magnet/internal/rdf"
	"magnet/internal/schema"
	"magnet/internal/text"
)

// Options tunes the model. The zero value gives the paper's configuration;
// the Disable*/Raw* switches exist for the ablation experiments called out
// in DESIGN.md.
type Options struct {
	// MaxDepth bounds property-path length for composed coordinates;
	// direct attributes have depth 1. 0 means the default: 2 when the
	// dataset has composition annotations, raised to TreeDepth for
	// tree-shaped datasets (§6.2).
	MaxDepth int
	// TreeDepth is the depth used for tree-shaped datasets when MaxDepth
	// is 0 (default 4).
	TreeDepth int
	// DisableCompositions ablates §5.1 attribute compositions.
	DisableCompositions bool
	// DisablePerAttributeNorm ablates §5.2 per-attribute frequency
	// normalization (raw counts are used instead).
	DisablePerAttributeNorm bool
	// RawNumeric ablates §5.4: numeric values become a single raw-valued
	// coordinate instead of the unit-circle pair, demonstrating the
	// "arbitrarily large values swamp other coordinates" failure the paper
	// designed around.
	RawNumeric bool
	// Analyzer overrides the text pipeline (text.DefaultAnalyzer if nil).
	Analyzer *text.Analyzer
}

func (o Options) maxDepth(tree bool) int {
	if o.MaxDepth > 0 {
		return o.MaxDepth
	}
	if tree {
		if o.TreeDepth > 0 {
			return o.TreeDepth
		}
		return 4
	}
	return 2
}

// Range tracks the observed numeric range of a property path; the
// unit-circle encoding maps [Min, Max] onto [0, π/2].
type Range struct {
	Min, Max float64
	Count    int
}

func (r *Range) observe(v float64) {
	if r.Count == 0 || v < r.Min {
		r.Min = v
	}
	if r.Count == 0 || v > r.Max {
		r.Max = v
	}
	r.Count++
}

// theta maps v into [0, π/2], clamping values outside the observed range
// (items vectorized outside the IndexAll set may exceed it).
func (r *Range) theta(v float64) float64 {
	if r.Max <= r.Min {
		return 0
	}
	t := (v - r.Min) / (r.Max - r.Min)
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return t * math.Pi / 2
}

// Model is the semistructured vector space model over a graph.
type Model struct {
	g     *rdf.Graph
	sch   *schema.Store
	store *index.VectorStore
	an    *text.Analyzer
	opts  Options

	// stats holds numeric range statistics per property path, populated by
	// IndexAll's first pass.
	stats map[string]*Range

	// pool bounds IndexAll's parallel vectorization; nil indexes serially.
	pool *par.Pool
}

// SetPool sets the worker pool for batch indexing and hands it to the
// vector store for similarity/centroid scans. Call before IndexAll (whose
// fresh store inherits it); a nil pool (the default) keeps everything
// serial.
func (m *Model) SetPool(p *par.Pool) {
	m.pool = p
	m.store.SetPool(p)
}

// New returns a model over g with annotations from sch.
func New(g *rdf.Graph, sch *schema.Store, opts Options) *Model {
	an := opts.Analyzer
	if an == nil {
		an = text.DefaultAnalyzer
	}
	return &Model{
		g:     g,
		sch:   sch,
		store: index.NewVectorBuilder().Freeze(),
		an:    an,
		opts:  opts,
		stats: make(map[string]*Range),
	}
}

// FromStore returns a model over a frozen vector store (compiled by
// IndexAll's builder, in memory or on disk) with its precomputed numeric
// range statistics in place of an IndexAll pass.
func FromStore(g *rdf.Graph, sch *schema.Store, store *index.VectorStore, ranges map[string]Range, opts Options) *Model {
	an := opts.Analyzer
	if an == nil {
		an = text.DefaultAnalyzer
	}
	stats := make(map[string]*Range, len(ranges))
	for k, r := range ranges {
		r := r
		stats[k] = &r
	}
	return &Model{g: g, sch: sch, store: store, an: an, opts: opts, stats: stats}
}

// Ranges returns a copy of the numeric range statistics gathered by the
// last IndexAll, keyed by PathKey — the build-side export persistent
// segments serialize and FromStore restores.
func (m *Model) Ranges() map[string]Range {
	out := make(map[string]Range, len(m.stats))
	for k, r := range m.stats {
		out[k] = *r
	}
	return out
}

// Store exposes the underlying frozen vector store (tests and benches use
// it directly).
func (m *Model) Store() *index.VectorStore { return m.store }

// NumericRange returns the observed range for a property path, if any.
func (m *Model) NumericRange(path []rdf.IRI) (Range, bool) {
	r, ok := m.stats[PathKey(path)]
	if !ok {
		return Range{}, false
	}
	return *r, true
}

// IndexAll indexes the given items into a freshly built and frozen vector
// store, replacing the previous one: a first pass gathers numeric range statistics (the
// unit-circle encoding needs each attribute's observed range), a second
// pass builds each item's vector in parallel — vectorization only reads
// the graph and the completed statistics — and stores it. This is the
// paper's "indexing the data in advance" (§5.2). items must not repeat.
func (m *Model) IndexAll(items []rdf.IRI) {
	m.stats = make(map[string]*Range)
	for _, it := range items {
		m.walk(it, nil, m.statsVisitor())
	}

	// Vectorize on the pool — it only reads the graph and the completed
	// statistics — then store serially in item order, so doc/term interning
	// order (and thus the store's internal numbering) is deterministic at
	// every pool width, unlike the old racing-workers scheme.
	vecs, err := par.Map(context.Background(), m.pool, items, func(i int, it rdf.IRI) map[string]float64 {
		return m.Vectorize(it)
	})
	var pe *par.PanicError
	if errors.As(err, &pe) {
		panic(pe)
	}
	b := index.NewVectorBuilder()
	b.PinnedPrefix = PinnedPrefix
	for i, it := range items {
		b.Add(string(it), vecs[i])
	}
	m.store = b.Freeze()
	m.store.SetPool(m.pool)
}

// visitor receives each coordinate contribution during a traversal.
type visitor func(path []rdf.IRI, vt schema.ValueType, values []rdf.Term, weight float64, out map[string]float64)

func (m *Model) statsVisitor() visitor {
	return func(path []rdf.IRI, vt schema.ValueType, values []rdf.Term, _ float64, _ map[string]float64) {
		if !vt.Numeric() {
			return
		}
		key := PathKey(path)
		r := m.stats[key]
		if r == nil {
			r = &Range{}
			m.stats[key] = r
		}
		for _, v := range values {
			if lit, ok := v.(rdf.Literal); ok {
				if f, ok := lit.Float(); ok {
					r.observe(f)
				}
			}
		}
	}
}

// Vectorize builds the raw coordinate-frequency map for an item (the input
// to the store's tf·idf weighting). Exposed for tests and the Figure 3→4
// experiment.
func (m *Model) Vectorize(item rdf.IRI) map[string]float64 {
	out := make(map[string]float64)
	m.walk(item, nil, m.coordVisitor(out))
	return out
}

func (m *Model) coordVisitor(out map[string]float64) visitor {
	return func(path []rdf.IRI, vt schema.ValueType, values []rdf.Term, weight float64, _ map[string]float64) {
		m.emit(path, vt, values, weight, out)
	}
}

// walk traverses the item's attributes (and composed attributes) calling v
// for every (path, values) pair.
func (m *Model) walk(node rdf.IRI, prefix []rdf.IRI, v visitor) {
	m.walkRec(node, prefix, make([]rdf.IRI, 0, 8), 1, v)
}

// onPath is the stack of nodes on the current recursion path (cycle guard);
// composition depth is small, so a linear scan beats hashing every node.
func onPathContains(onPath []rdf.IRI, node rdf.IRI) bool {
	for _, n := range onPath {
		if n == node {
			return true
		}
	}
	return false
}

func (m *Model) walkRec(node rdf.IRI, prefix, onPath []rdf.IRI, weight float64, v visitor) {
	onPath = append(onPath, node)

	tree := m.sch.TreeShaped()
	maxDepth := m.opts.maxDepth(tree)
	for _, p := range m.g.PredicatesOf(node) {
		if m.sch.Hidden(p) {
			continue
		}
		values := m.g.Objects(node, p)
		if len(values) == 0 {
			continue
		}
		path := append(append([]rdf.IRI{}, prefix...), p)
		vt := m.sch.ValueType(p)
		v(path, vt, values, weight, nil)

		// Composition (§5.1): follow resource values one more level when
		// the property is annotated composable, or the dataset is
		// tree-shaped, within the depth bound.
		if m.opts.DisableCompositions || len(path) >= maxDepth {
			continue
		}
		if !m.sch.Composable(p) && !tree {
			continue
		}
		childWeight := weight
		if !m.opts.DisablePerAttributeNorm {
			childWeight = weight / float64(len(values))
		}
		for _, val := range values {
			obj, ok := val.(rdf.IRI)
			if !ok || onPathContains(onPath, obj) {
				continue
			}
			m.walkRec(obj, path, onPath, childWeight, v)
		}
	}
}

// emit converts one (path, values) attribute into coordinate frequencies.
//
// Per-attribute normalization (§5.2, "first divide each term frequency by
// the number of values for the attributes"): each attribute contributes
// total mass `weight` regardless of how many values (or, for text, how many
// words) it carries — "for an email, the importance of the subject is the
// same as the importance of the body".
func (m *Model) emit(path []rdf.IRI, vt schema.ValueType, values []rdf.Term, weight float64, out map[string]float64) {
	if vt.Numeric() && !m.opts.RawNumeric {
		m.emitUnitCircle(path, values, weight, out)
		return
	}
	if vt.Numeric() && m.opts.RawNumeric {
		m.emitRawNumeric(path, values, weight, out)
		return
	}

	norm := !m.opts.DisablePerAttributeNorm

	// First pass over values: collect text token counts and object values.
	tokenCounts := make(map[string]int)
	totalTokens := 0
	var objects []rdf.Term
	for _, val := range values {
		switch tv := val.(type) {
		case rdf.Literal:
			if tv.Datatype == "" || tv.Datatype == rdf.XSDString {
				for _, tok := range m.an.Terms(tv.Lexical) {
					tokenCounts[tok]++
					totalTokens++
				}
				continue
			}
			// Non-text literals (booleans, typed numbers on a property whose
			// *effective* type is not numeric, e.g. mixed bags) are treated
			// by identity.
			objects = append(objects, tv)
		default:
			objects = append(objects, tv)
		}
	}

	// Objects: identity coordinates.
	for _, o := range objects {
		c := Coord{Kind: CoordObject, Path: path, Value: o}
		f := 1.0
		if norm {
			f = weight / float64(len(values))
		}
		out[c.Key()] += f
	}
	// Text: word coordinates. Under per-attribute normalization the word
	// mass of this attribute sums to weight × (textValues/len(values)).
	if totalTokens > 0 {
		textValues := len(values) - len(objects)
		for tok, cnt := range tokenCounts {
			c := Coord{Kind: CoordWord, Path: path, Word: tok}
			f := float64(cnt)
			if norm {
				f = weight * (float64(textValues) / float64(len(values))) * float64(cnt) / float64(totalTokens)
			}
			out[c.Key()] += f
		}
	}
}

// emitUnitCircle implements §5.4: map the attribute's numeric value into
// [0, π/2] over the corpus range and contribute the (cos θ, sin θ) pair,
// whose norm is always 1 — "all values have the same norm but different
// values have small dot product". Multiple values average first.
func (m *Model) emitUnitCircle(path []rdf.IRI, values []rdf.Term, weight float64, out map[string]float64) {
	f, ok := averageNumeric(values)
	if !ok {
		return
	}
	r := m.stats[PathKey(path)]
	if r == nil {
		// Item indexed without prior IndexAll stats: a local single-value
		// range (θ = 0) keeps the coordinate present without mutating
		// shared statistics — Vectorize must stay read-only so IndexAll can
		// run it concurrently.
		local := &Range{}
		local.observe(f)
		r = local
	}
	theta := r.theta(f)
	w := weight
	if m.opts.DisablePerAttributeNorm {
		w = 1
	}
	out[Coord{Kind: CoordNumeric, Path: path, Axis: "cos"}.Key()] += w * math.Cos(theta)
	out[Coord{Kind: CoordNumeric, Path: path, Axis: "sin"}.Key()] += w * math.Sin(theta)
}

// emitRawNumeric is the §5.4 ablation: a single coordinate carrying the raw
// value, which lets large magnitudes swamp every other coordinate after
// document normalization.
func (m *Model) emitRawNumeric(path []rdf.IRI, values []rdf.Term, weight float64, out map[string]float64) {
	f, ok := averageNumeric(values)
	if !ok {
		return
	}
	if f < 0 {
		f = -f
	}
	out[Coord{Kind: CoordNumeric, Path: path, Axis: "cos"}.Key()] += weight * f
}

func averageNumeric(values []rdf.Term) (float64, bool) {
	var sum float64
	n := 0
	for _, v := range values {
		if lit, ok := v.(rdf.Literal); ok {
			if f, ok := lit.Float(); ok {
				sum += f
				n++
			}
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Vector returns the item's normalized tf·idf vector.
func (m *Model) Vector(item rdf.IRI) map[string]float64 {
	return m.store.Vector(string(item))
}

// Similarity returns the cosine similarity of two items (§5.3: "a
// traditional dot-product between the two vectors").
func (m *Model) Similarity(a, b rdf.IRI) float64 {
	return m.store.Similarity(string(a), string(b))
}

// ScoredItem pairs an item with a similarity score.
type ScoredItem struct {
	Item  rdf.IRI
	Score float64
}

// SimilarToItem returns up to k items most similar to item, excluding the
// item itself.
func (m *Model) SimilarToItem(item rdf.IRI, k int) []ScoredItem {
	return toScoredItems(m.store.SimilarTo(m.Vector(item), k, []string{string(item)}))
}

// Centroid returns the normalized "average member" vector of a collection
// (§5.3).
func (m *Model) Centroid(items []rdf.IRI) map[string]float64 {
	return m.store.Centroid(itemIDs(items))
}

// SimilarToCollection returns up to k items most similar to the collection
// centroid; members themselves are excluded when excludeMembers is true.
// This backs the "Similar by Content (Overall)" advisor's collection
// analyst (§4.1).
func (m *Model) SimilarToCollection(items []rdf.IRI, k int, excludeMembers bool) []ScoredItem {
	return toScoredItems(m.store.SimilarToCentroid(itemIDs(items), k, excludeMembers))
}

// Scores returns the dot product of query with each item's vector (zero
// for unindexed items), summed in the same fixed order as the similarity
// rankings, so equal inputs always rank alike.
func (m *Model) Scores(query map[string]float64, items []rdf.IRI) []float64 {
	return m.store.ScoreDocs(query, itemIDs(items))
}

// Weights returns the item's normalized tf·idf vector as (coordinate key,
// weight) pairs in the vector store's fixed term order.
func (m *Model) Weights(item rdf.IRI) []index.TermWeight {
	return m.store.Weights(string(item))
}

func itemIDs(items []rdf.IRI) []string {
	ids := make([]string, len(items))
	for i, it := range items {
		ids[i] = string(it)
	}
	return ids
}

func toScoredItems(scored []index.Scored) []ScoredItem {
	out := make([]ScoredItem, len(scored))
	for i, s := range scored {
		out[i] = ScoredItem{Item: rdf.IRI(s.ID), Score: s.Score}
	}
	return out
}

// WeightedCoord is a decoded coordinate with its centroid weight.
type WeightedCoord struct {
	Coord  Coord
	Weight float64
}

// RefinementCoords implements the paper's query-refinement technique
// (§5.3): "picking terms in the average document having the largest
// normalized term weights". It returns the k highest-weighted object and
// word coordinates of the collection centroid (numeric coordinates are
// handled by the range analyst instead), optionally filtered by accept.
func (m *Model) RefinementCoords(items []rdf.IRI, k int, accept func(Coord) bool) []WeightedCoord {
	centroid := m.Centroid(items)
	top := index.TopTerms(centroid, k, func(term string) bool {
		c, ok := ParseCoord(term)
		if !ok || c.Kind == CoordNumeric {
			return false
		}
		if accept != nil && !accept(c) {
			return false
		}
		return true
	})
	out := make([]WeightedCoord, 0, len(top))
	for _, tw := range top {
		c, _ := ParseCoord(tw.Term)
		out = append(out, WeightedCoord{Coord: c, Weight: tw.Weight})
	}
	return out
}

// ExplainSimilarity returns the k coordinates contributing most to the
// similarity of two items, with each coordinate's contribution (the product
// of the two normalized weights). The contributions sum to
// Similarity(a, b), which makes the fuzzy "similar by content" suggestions
// inspectable — why *is* this recipe similar?
func (m *Model) ExplainSimilarity(a, b rdf.IRI, k int) []WeightedCoord {
	va, vb := m.Vector(a), m.Vector(b)
	if len(va) > len(vb) {
		va, vb = vb, va
	}
	var out []WeightedCoord
	for term, wa := range va {
		wb, shared := vb[term]
		if !shared {
			continue
		}
		c, ok := ParseCoord(term)
		if !ok {
			continue
		}
		out = append(out, WeightedCoord{Coord: c, Weight: wa * wb})
	}
	sort.Slice(out, func(i, j int) bool {
		if !ApproxEqual(out[i].Weight, out[j].Weight) {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Coord.Key() < out[j].Coord.Key()
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// DebugVector renders an item's weighted vector sorted by descending weight
// (a development aid mirroring the paper's Figure 4).
func (m *Model) DebugVector(item rdf.IRI, label func(rdf.IRI) string) []string {
	vec := m.Vector(item)
	type entry struct {
		term string
		w    float64
	}
	entries := make([]entry, 0, len(vec))
	for t, w := range vec {
		entries = append(entries, entry{t, w})
	}
	sort.Slice(entries, func(i, j int) bool {
		if !ApproxEqual(entries[i].w, entries[j].w) {
			return entries[i].w > entries[j].w
		}
		return entries[i].term < entries[j].term
	})
	out := make([]string, len(entries))
	for i, e := range entries {
		c, ok := ParseCoord(e.term)
		name := e.term
		if ok {
			name = PathLabel(c.Path, label)
			switch c.Kind {
			case CoordObject:
				name += " = " + c.Value.String()
			case CoordWord:
				name += " : " + c.Word
			case CoordNumeric:
				name += " # " + c.Axis
			}
		}
		out[i] = name + " ⇒ " + formatWeight(e.w)
	}
	return out
}
