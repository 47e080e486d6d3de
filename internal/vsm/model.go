package vsm

import (
	"context"
	"errors"
	"math"
	"sort"

	"magnet/internal/index"
	"magnet/internal/itemset"
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

// SetPool sets the worker pool for batch indexing; the store IndexAll
// freezes scans on it too. A nil pool (the default) keeps everything
// serial.
func (m *Model) SetPool(p *par.Pool) { m.pool = p }

// New returns a model over g with annotations from sch.
func New(g *rdf.Graph, sch *schema.Store, opts Options) *Model {
	an := opts.Analyzer
	if an == nil {
		an = text.DefaultAnalyzer
	}
	return &Model{
		g:     g,
		sch:   sch,
		store: index.NewVectorBuilder().Freeze(nil),
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

// IndexAll indexes the given items (graph subject IDs) into a freshly
// built and frozen vector store, replacing the previous one: a first pass
// gathers numeric range statistics (the unit-circle encoding needs each
// attribute's observed range), a second pass builds each item's vector in
// parallel — vectorization only reads the graph and the completed
// statistics — and stores it under the item's ID. This is the paper's
// "indexing the data in advance" (§5.2).
func (m *Model) IndexAll(items itemset.Set) {
	iris := make([]rdf.IRI, items.Len())
	for i, id := range items.Slice() {
		iris[i] = m.g.SubjectByID(id)
	}
	m.stats = make(map[string]*Range)
	for _, it := range iris {
		m.walk(it, nil, m.statsVisitor())
	}

	// Vectorize on the pool — it only reads the graph and the completed
	// statistics — then store serially in ascending ID order, so term
	// interning order (and thus the store's summation order) is
	// deterministic at every pool width.
	vecs, err := par.Map(context.Background(), m.pool, iris, func(i int, it rdf.IRI) map[string]float64 {
		return m.Vectorize(it)
	})
	var pe *par.PanicError
	if errors.As(err, &pe) {
		panic(pe)
	}
	b := index.NewVectorBuilder()
	b.PinnedPrefix = PinnedPrefix
	for i, id := range items.Slice() {
		b.Add(id, vecs[i])
	}
	m.store = b.Freeze(m.pool)
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

// Similarity returns the cosine similarity of two items (§5.3: "a
// traditional dot-product between the two vectors"); zero when either is
// unknown.
func (m *Model) Similarity(a, b rdf.IRI) float64 {
	ia, okA := m.g.SubjectID(a)
	ib, okB := m.g.SubjectID(b)
	if !okA || !okB {
		return 0
	}
	return m.store.Similarity(ia, ib)
}

// SimilarToItem returns up to k items most similar to item, excluding the
// item itself, as ranked item IDs.
func (m *Model) SimilarToItem(item rdf.IRI, k int) []index.Scored {
	id, ok := m.g.SubjectID(item)
	if !ok {
		return nil
	}
	return m.store.SimilarToDoc(id, k)
}

// Centroid returns the normalized "average member" vector of a collection
// (§5.3), summed in ascending item ID order.
func (m *Model) Centroid(items itemset.Set) index.Centroid {
	return m.store.Centroid(items)
}

// Nearest returns up to k items most similar to the centroid c, skipping
// the items in exclude, as ranked item IDs. With a collection's centroid
// and its members excluded, this backs the "Similar by Content" advisor's
// collection analyst (§4.1).
func (m *Model) Nearest(c index.Centroid, k int, exclude itemset.Set) []index.Scored {
	return m.store.Nearest(c, k, exclude)
}

// Scores returns the dot product of the centroid c with each item's
// vector, in ascending item ID order (zero for unindexed items), summed in
// the same fixed order as the similarity rankings, so equal inputs always
// rank alike.
func (m *Model) Scores(c index.Centroid, items itemset.Set) []float64 {
	return m.store.ScoreDocs(c, items)
}

// Weights returns the item's normalized tf·idf vector as (coordinate key,
// weight) pairs in the vector store's fixed term order.
func (m *Model) Weights(item rdf.IRI) []index.TermWeight {
	id, ok := m.g.SubjectID(item)
	if !ok {
		return nil
	}
	return m.store.Weights(id)
}

// WeightedCoord is a decoded coordinate with its centroid weight.
type WeightedCoord struct {
	Coord  Coord
	Weight float64
}

// TopCoords implements the paper's query-refinement technique (§5.3):
// "picking terms in the average document having the largest normalized
// term weights". It returns the k highest-weighted object and word
// coordinates of the centroid c, in descending weight order (ties by
// coordinate key); numeric coordinates are handled by the range analyst
// instead. Only the terms ranked until k are accepted are decoded.
func (m *Model) TopCoords(c index.Centroid, k int) []WeightedCoord {
	if k <= 0 {
		return nil
	}
	out := make([]WeightedCoord, 0, k)
	m.store.RankTerms(c, func(term string, w float64) bool {
		if cd, ok := ParseCoord(term); ok && cd.Kind != CoordNumeric {
			out = append(out, WeightedCoord{Coord: cd, Weight: w})
		}
		return len(out) < k
	})
	return out
}

// ExplainSimilarity returns the k coordinates contributing most to the
// similarity of two items, with each coordinate's contribution (the product
// of the two normalized weights). The contributions sum to
// Similarity(a, b), which makes the fuzzy "similar by content" suggestions
// inspectable — why *is* this recipe similar? The two rows are merged in
// the store's term order, so only shared coordinates are decoded.
func (m *Model) ExplainSimilarity(a, b rdf.IRI, k int) []WeightedCoord {
	ia, okA := m.g.SubjectID(a)
	ib, okB := m.g.SubjectID(b)
	if !okA || !okB {
		return nil
	}
	var out []WeightedCoord
	for _, tw := range m.store.SharedTerms(ia, ib) {
		if c, ok := ParseCoord(tw.Term); ok {
			out = append(out, WeightedCoord{Coord: c, Weight: tw.Weight})
		}
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
