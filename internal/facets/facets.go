// Package facets computes the faceted-metadata summaries behind Magnet's
// interface: per-property value histograms over a collection (the
// navigation pane of Figure 1 and the large-collection overview of
// Figure 2) and numeric histograms for range widgets with query previews
// (Figure 5's hatch marks).
package facets

import (
	"context"
	"errors"
	"math"
	"sort"
	"time"

	"magnet/internal/itemset"
	"magnet/internal/obs"
	"magnet/internal/par"
	"magnet/internal/rdf"
	"magnet/internal/schema"
)

// Facet-summarization observability: how often the navigation pane / Figure 2
// overview aggregation runs, how long it takes, and how many facets survive
// filtering. Recorded unconditionally in Summarize; SummarizeContext adds a
// span when the caller's context carries a trace.
var (
	summarizeCount  = obs.NewCounter("facets.summarize.count")
	summarizeNS     = obs.NewHistogram("facets.summarize.ns")
	summarizeFacets = obs.NewHistogram("facets.summarize.facets")
)

// Value is one attribute value with its occurrence count in the collection.
type Value struct {
	Term  rdf.Term
	Label string
	Count int
}

// Facet summarizes one property over a collection.
type Facet struct {
	Prop  rdf.IRI
	Label string
	// Labeled reports whether the property carries an explicit label;
	// unlabeled properties display raw identifiers (Figure 7).
	Labeled bool
	// ValueType is the property's effective value type.
	ValueType schema.ValueType
	// Values are the facet's values; ordering per Options.
	Values []Value
	// Distinct is the total number of distinct values in the collection
	// (Values may be truncated for display).
	Distinct int
	// Coverage is the number of collection items carrying the property.
	Coverage int
	// Preferred reports the magnet:facet annotation.
	Preferred bool
}

// Score orders facets by usefulness for browsing: high coverage with
// shared (non-unique) values beats sparse or all-distinct properties.
// Preferred (annotated) facets sort first regardless.
func (f Facet) Score() float64 {
	if f.Coverage == 0 {
		return 0
	}
	sharing := 1 - float64(f.Distinct)/float64(f.Coverage+1)
	return float64(f.Coverage) * sharing
}

// Options controls summarization.
type Options struct {
	// MaxValues truncates each facet's displayed values (0 = no limit);
	// Facet.Distinct still reports the full count (the interface's "..."
	// affordance, §3.2).
	MaxValues int
	// MinCount drops values occurring fewer times (0 or 1 keeps all).
	MinCount int
	// ByCount orders values by descending count (the Figure 2 overview);
	// default is alphabetical by label ("sorted in an alphabetical order to
	// enable users to search for a particular suggestion", §4.1).
	ByCount bool
	// IncludeUnshared keeps facets where every value is distinct (normally
	// useless for refinement and skipped).
	IncludeUnshared bool
	// Pool spreads per-property aggregation across workers; nil aggregates
	// serially. Output is identical either way: properties are
	// index-addressed into per-predicate slots, so the facet table never
	// depends on schedule.
	Pool *par.Pool
}

// Summarize computes facets for every navigation property occurring in the
// collection. Facets are ordered: preferred (annotated) facets first, then
// by descending Score, ties alphabetical.
//
// Aggregation runs on the graph's dense-ID plane: the collection becomes one
// sorted itemset, and each property's per-value histogram is a sequence of
// posting-list intersections — no per-item hashing, no per-value maps.
func Summarize(g *rdf.Graph, sch *schema.Store, items []rdf.IRI, opts Options) []Facet {
	return summarize(context.Background(), g, sch, items, opts)
}

func summarize(ctx context.Context, g *rdf.Graph, sch *schema.Store, items []rdf.IRI, opts Options) []Facet {
	start := time.Now()
	collIDs := make([]uint32, 0, len(items))
	for _, it := range items {
		// Items absent from the graph carry no properties.
		if id, ok := g.SubjectID(it); ok {
			collIDs = append(collIDs, id)
		}
	}
	coll := itemset.FromUnsorted(collIDs)

	// Every intersection result is a subset of coll, so coll's max ID bounds
	// each worker's epoch-stamp array.
	var maxID uint32
	if n := coll.Len(); n > 0 {
		maxID, _ = coll.Select(n - 1)
	}

	// Spread per-predicate aggregation across the pool. Predicates() is
	// sorted, results are index-addressed per predicate, and each chunk
	// carries its own scratch (stamp array + intersection buffer), so the
	// collected table is identical to a serial pass. With a nil/serial
	// pool ChunkFor yields one chunk: one scratch allocation, exactly the
	// old loop.
	preds := g.Predicates()
	results := make([]*Facet, len(preds))
	err := par.ForChunks(ctx, opts.Pool, len(preds), par.ChunkFor(opts.Pool, len(preds)), func(lo, hi int) {
		seen := make([]uint32, int(maxID)+1)
		var epoch uint32
		var buf []uint32 // intersection scratch, reused across values
		for i := lo; i < hi; i++ {
			epoch++
			results[i] = summarizeProp(g, sch, preds[i], coll, seen, epoch, &buf, opts)
		}
	})
	var pe *par.PanicError
	if errors.As(err, &pe) {
		panic(pe)
	}

	facets := make([]Facet, 0, len(results))
	for _, f := range results {
		if f != nil {
			facets = append(facets, *f)
		}
	}
	sortFacets(facets)
	summarizeCount.Inc()
	summarizeNS.ObserveSince(start)
	summarizeFacets.Observe(int64(len(facets)))
	return facets
}

// sortFacets applies the display order: preferred (annotated) facets
// first, then by descending Score, ties alphabetical. Callers must present
// facets in property order (Predicates() is sorted) so equal-key elements
// always enter the unstable sort in the same sequence and the output stays
// byte-identical.
func sortFacets(facets []Facet) {
	sort.Slice(facets, func(i, j int) bool {
		if facets[i].Preferred != facets[j].Preferred {
			return facets[i].Preferred
		}
		si, sj := facets[i].Score(), facets[j].Score()
		if si != sj {
			return si > sj
		}
		return facets[i].Label < facets[j].Label
	})
}

// summarizeProp aggregates one property over the collection, returning nil
// for hidden, uncovered, or unshared-and-unpreferred properties. seen is
// the caller's epoch-stamp array (epoch must be fresh for this call) and
// buf its reusable intersection scratch — both owned by a single worker.
func summarizeProp(g *rdf.Graph, sch *schema.Store, p rdf.IRI, coll itemset.Set, seen []uint32, epoch uint32, buf *[]uint32, opts Options) *Facet {
	if sch.Hidden(p) {
		return nil
	}
	coverage, distinct := 0, 0
	shared := false
	var values []Value
	g.ForEachValuePosting(p, func(o rdf.Term, subjects itemset.Set) bool {
		inter := itemset.IntersectInto(*buf, subjects, coll)
		*buf = inter.Buffer()[:0]
		n := inter.Len()
		if n == 0 {
			return true
		}
		distinct++
		if n >= 2 {
			shared = true
		}
		coverage += countCoverage(inter.Slice(), seen, epoch)
		if opts.MinCount > 1 && n < opts.MinCount {
			return true
		}
		values = append(values, Value{Term: o, Label: g.TermLabel(o), Count: n})
		return true
	})
	if coverage == 0 {
		return nil
	}
	f := Facet{
		Prop:      p,
		Label:     sch.Label(p),
		Labeled:   sch.HasLabel(p),
		ValueType: sch.ValueType(p),
		Values:    values,
		Distinct:  distinct,
		Coverage:  coverage,
		Preferred: sch.IsFacet(p),
	}
	if p == rdf.Type {
		// System vocabulary always displays readably, even on datasets
		// that otherwise show raw identifiers (Figure 7).
		f.Label, f.Labeled = "type", true
	}
	if !shared && !opts.IncludeUnshared && !f.Preferred {
		return nil
	}
	sortValues(f.Values, opts.ByCount)
	if opts.MaxValues > 0 && len(f.Values) > opts.MaxValues {
		f.Values = f.Values[:opts.MaxValues]
	}
	return &f
}

// countCoverage stamps each member into seen at epoch and returns how many
// were newly stamped — the per-value inner loop of Summarize. It used to be
// a closure over seen/epoch/coverage inside summarizeProp, which heap-
// allocated once per (property, value) pair; as a plain function it is
// allocation-free by construction and magnet-vet's hotalloc keeps it that
// way.
//
//magnet:hot
func countCoverage(members, seen []uint32, epoch uint32) int {
	n := 0
	for _, id := range members {
		if seen[id] != epoch {
			seen[id] = epoch
			n++
		}
	}
	return n
}

// SummarizeContext is Summarize with tracing: when ctx carries a trace
// (obs.StartTrace) the aggregation appears as a facets.summarize span
// annotated with collection size and facet count.
func SummarizeContext(ctx context.Context, g *rdf.Graph, sch *schema.Store, items []rdf.IRI, opts Options) []Facet {
	ctx, sp := obs.StartSpan(ctx, "facets.summarize")
	facets := summarize(ctx, g, sch, items, opts)
	sp.SetInt("items", len(items))
	sp.SetInt("facets", len(facets))
	sp.End()
	return facets
}

func sortValues(vs []Value, byCount bool) {
	sort.Slice(vs, func(i, j int) bool {
		if byCount && vs[i].Count != vs[j].Count {
			return vs[i].Count > vs[j].Count
		}
		if vs[i].Label != vs[j].Label {
			return vs[i].Label < vs[j].Label
		}
		return vs[i].Term.Key() < vs[j].Term.Key()
	})
}

// Histogram is a bucketed numeric summary for a range widget: Figure 5's
// "hatch marks to represent documents thus showing a form of query
// preview".
type Histogram struct {
	Prop     rdf.IRI
	Min, Max float64
	Buckets  []int
	// Count is the number of items contributing a value.
	Count int
}

// NumericHistogram summarizes prop's numeric values over the collection in
// nbuckets equal-width buckets. Items without a parseable numeric value are
// skipped; ok is false when fewer than two items contribute (no range to
// select).
func NumericHistogram(g *rdf.Graph, items []rdf.IRI, prop rdf.IRI, nbuckets int) (Histogram, bool) {
	if nbuckets <= 0 {
		nbuckets = 10
	}
	var vals []float64
	for _, it := range items {
		for _, o := range g.Objects(it, prop) {
			lit, ok := o.(rdf.Literal)
			if !ok {
				continue
			}
			if f, ok := lit.Float(); ok {
				vals = append(vals, f)
				break // one value per item in the preview
			}
		}
	}
	if len(vals) < 2 {
		return Histogram{Prop: prop}, false
	}
	h := Histogram{Prop: prop, Min: vals[0], Max: vals[0], Buckets: make([]int, nbuckets), Count: len(vals)}
	for _, v := range vals {
		if v < h.Min {
			h.Min = v
		}
		if v > h.Max {
			h.Max = v
		}
	}
	if h.Max == h.Min {
		h.Buckets[0] = len(vals)
		return h, true
	}
	for _, v := range vals {
		b := int(float64(nbuckets) * (v - h.Min) / (h.Max - h.Min))
		if b == nbuckets {
			b--
		}
		h.Buckets[b]++
	}
	return h, true
}

// Outliers returns values more than k standard deviations from the mean of
// prop over the collection (how the Figure 8 walkthrough "clearly shows one
// state (Alaska) having a much larger area than the rest"). Items without
// numeric values are skipped.
func Outliers(g *rdf.Graph, items []rdf.IRI, prop rdf.IRI, k float64) []rdf.IRI {
	type pair struct {
		item rdf.IRI
		v    float64
	}
	var pairs []pair
	var sum float64
	for _, it := range items {
		for _, o := range g.Objects(it, prop) {
			lit, ok := o.(rdf.Literal)
			if !ok {
				continue
			}
			if f, ok := lit.Float(); ok {
				pairs = append(pairs, pair{it, f})
				sum += f
				break
			}
		}
	}
	if len(pairs) < 3 {
		return nil
	}
	mean := sum / float64(len(pairs))
	var varsum float64
	for _, p := range pairs {
		d := p.v - mean
		varsum += d * d
	}
	variance := varsum / float64(len(pairs))
	if variance == 0 {
		return nil
	}
	std := math.Sqrt(variance)
	var out []rdf.IRI
	for _, p := range pairs {
		if math.Abs(p.v-mean) > k*std {
			out = append(out, p.item)
		}
	}
	// Output follows the input order; callers pass sorted collections, so
	// re-sorting here would be redundant.
	return out
}
