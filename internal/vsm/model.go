package vsm

import (
	"math"
	"sort"

	"magnet/internal/index"
	"magnet/internal/itemset"
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

// merge folds in a range observed over later values: the result is the
// range of observing both value sequences in order.
func (r *Range) merge(o Range) {
	if o.Count == 0 {
		return
	}
	if r.Count == 0 || o.Min < r.Min {
		r.Min = o.Min
	}
	if r.Count == 0 || o.Max > r.Max {
		r.Max = o.Max
	}
	r.Count += o.Count
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

	// stats holds numeric range statistics per property path, merged by
	// IndexAll from the ranges its walk observes per item.
	stats map[string]*Range
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

// IndexAll indexes the given items (graph subject IDs) into a freshly
// built and frozen vector store, replacing the previous one. This is the
// paper's "indexing the data in advance" (§5.2). It walks every item on
// the ID plane in ascending ID order (walk.go), gathering each numeric
// path's observed range as it goes. The unit-circle encoding needs the
// complete ranges, so numeric coordinates are finished in a second pass,
// which stores the rows in the same order: term interning order (and thus
// the store's summation order) is deterministic.
func (m *Model) IndexAll(items itemset.Set) {
	w := m.newWalker()
	ids := items.Slice()
	rows := make([]itemRow, len(ids))
	sc := w.newScratch()
	for i, id := range ids {
		rows[i] = w.vectorize(sc, id)
	}

	// Merge the per-item ranges in item order: the same Min, Max and Count
	// as observing every value in walk order.
	ranges := make([]Range, len(w.paths))
	seen := make([]bool, len(ranges))
	for i := range rows {
		for _, pr := range rows[i].ranges {
			ranges[pr.path].merge(pr.r)
			seen[pr.path] = true
		}
	}
	m.stats = make(map[string]*Range)
	for p, ok := range seen {
		if ok {
			m.stats[w.pathKey(uint32(p))] = &ranges[p]
		}
	}

	b := index.NewVectorBuilder()
	b.PinnedPrefix = PinnedPrefix
	rangeOf := func(p uint32) *Range { return &ranges[p] }
	for i, id := range ids {
		w.finish(&rows[i], rangeOf)
		b.Add(id, rows[i].coords, rows[i].freqs, w.key)
		rows[i] = itemRow{}
	}
	m.store = b.Freeze()
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
