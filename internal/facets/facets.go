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

func summarize(ctx context.Context, g *rdf.Graph, sch *schema.Store, coll itemset.Set, opts Options) []Facet {
	start := time.Now()
	// Every intersection result is a subset of coll, so coll's max ID bounds
	// each worker's epoch-stamp array.
	var maxID uint32
	if n := coll.Len(); n > 0 {
		maxID, _ = coll.Select(n - 1)
	}
	// The collection's membership bitmap, built once and read by every
	// worker: most postings are counted by bit test against it.
	member := itemset.NewBits(int(maxID) + 1)
	member.AddSlice(coll.Slice())

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
			results[i] = summarizeProp(g, sch, preds[i], coll, member, seen, epoch, &buf, opts)
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
// for hidden, uncovered, or unshared-and-unpreferred properties. member is
// the collection's bitmap, seen the caller's epoch-stamp array (epoch must
// be fresh for this call) and buf its reusable intersection scratch — the
// last two owned by a single worker.
//
// Each value's posting is counted by bit test against member, in
// O(posting). Only a posting at least itemset.SkewRatio times the
// collection is galloped into it instead, in O(collection × log ratio).
func summarizeProp(g *rdf.Graph, sch *schema.Store, p rdf.IRI, coll itemset.Set, member *itemset.Bits, seen []uint32, epoch uint32, buf *[]uint32, opts Options) *Facet {
	if sch.Hidden(p) {
		return nil
	}
	coverage, distinct := 0, 0
	shared := false
	var values []Value
	g.ForEachValuePosting(p, func(o rdf.Term, subjects itemset.Set) bool {
		var n, fresh int
		if subjects.Len() >= itemset.SkewRatio*coll.Len() {
			inter := itemset.IntersectInto(*buf, subjects, coll)
			*buf = inter.Buffer()[:0]
			n, fresh = inter.Len(), countCoverage(inter.Slice(), seen, epoch)
		} else {
			n, fresh = countMembers(subjects.Slice(), member, seen, epoch)
		}
		if n == 0 {
			return true
		}
		distinct++
		if n >= 2 {
			shared = true
		}
		coverage += fresh
		if opts.MinCount > 1 && n < opts.MinCount {
			return true
		}
		values = append(values, Value{Term: o, Count: n})
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
	// Label only the values of a kept facet; the sort reads the labels.
	for i := range f.Values {
		f.Values[i].Label = g.TermLabel(f.Values[i].Term)
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

// countMembers counts the posting's collection members by bit test and
// stamps each into seen at epoch, returning the member count and how many
// were newly stamped: countCoverage fused with the intersection, for
// postings not much larger than the collection.
//
//magnet:hot
func countMembers(posting []uint32, member *itemset.Bits, seen []uint32, epoch uint32) (n, fresh int) {
	for _, id := range posting {
		if !member.Has(id) {
			continue
		}
		n++
		if seen[id] != epoch {
			seen[id] = epoch
			fresh++
		}
	}
	return n, fresh
}

// SummarizeContext computes facets for every navigation property occurring
// in the collection (a view's IDs). Facets are ordered: preferred
// (annotated) facets first, then by descending Score, ties alphabetical.
//
// Aggregation runs on the graph's dense-ID plane: each property's
// per-value histogram counts every value's posting against the
// collection's bitmap (or gallops a much larger posting into it) — no
// per-item hashing, no per-value maps. When ctx carries a trace
// (obs.StartTrace) the aggregation appears as a facets.summarize span
// annotated with collection size and facet count.
func SummarizeContext(ctx context.Context, g *rdf.Graph, sch *schema.Store, coll itemset.Set, opts Options) []Facet {
	ctx, sp := obs.StartSpan(ctx, "facets.summarize")
	facets := summarize(ctx, g, sch, coll, opts)
	sp.SetInt("items", coll.Len())
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
// nbuckets equal-width buckets. Each item contributes its first parseable
// numeric value by key (see firstNumeric); items without one are skipped.
// ok is false when fewer than two items contribute (no range to select).
func NumericHistogram(g *rdf.Graph, coll itemset.Set, prop rdf.IRI, nbuckets int) (Histogram, bool) {
	if nbuckets <= 0 {
		nbuckets = 10
	}
	// The histogram depends only on min, max and per-bucket counts, so each
	// value is kept once with the number of items it reaches.
	type run struct {
		v float64
		n int
	}
	var runs []run
	count := 0
	firstNumeric(g, coll, prop, func(v float64, members []uint32) {
		runs = append(runs, run{v, len(members)})
		count += len(members)
	})
	if count < 2 {
		return Histogram{Prop: prop}, false
	}
	h := Histogram{Prop: prop, Min: runs[0].v, Max: runs[0].v, Buckets: make([]int, nbuckets), Count: count}
	for _, r := range runs {
		if r.v < h.Min {
			h.Min = r.v
		}
		if r.v > h.Max {
			h.Max = r.v
		}
	}
	if h.Max == h.Min {
		h.Buckets[0] = count
		return h, true
	}
	for _, r := range runs {
		b := int(float64(nbuckets) * (r.v - h.Min) / (h.Max - h.Min))
		if b == nbuckets {
			b--
		}
		h.Buckets[b] += r.n
	}
	return h, true
}

// Outliers returns the members of coll whose value of prop lies more than
// k standard deviations from the mean over the collection (how the
// Figure 8 walkthrough "clearly shows one state (Alaska) having a much
// larger area than the rest"). Members without numeric values are
// skipped. The mean and variance sum in ascending ID order.
func Outliers(g *rdf.Graph, coll itemset.Set, prop rdf.IRI, k float64) itemset.Set {
	// value[i] is the numeric value of coll's i-th member; has marks the
	// members that have one.
	value := make([]float64, coll.Len())
	has := make([]bool, coll.Len())
	firstNumeric(g, coll, prop, func(v float64, members []uint32) {
		for _, id := range members {
			i := coll.Rank(id)
			value[i], has[i] = v, true
		}
	})
	n := 0
	var sum float64
	for i, ok := range has {
		if ok {
			sum += value[i]
			n++
		}
	}
	if n < 3 {
		return itemset.Set{}
	}
	mean := sum / float64(n)
	var varsum float64
	for i, ok := range has {
		if ok {
			d := value[i] - mean
			varsum += d * d
		}
	}
	variance := varsum / float64(n)
	if variance == 0 {
		return itemset.Set{}
	}
	std := math.Sqrt(variance)
	var out []uint32
	for i, id := range coll.Slice() {
		if has[i] && math.Abs(value[i]-mean) > k*std {
			out = append(out, id)
		}
	}
	return itemset.FromSorted(out)
}

// firstNumeric is the one reader of items' numeric values. It walks prop's
// values in key order, the order Objects returns an item's values in, and
// calls f with each parseable numeric value and the collection members it
// is the first such value of. An item with several numeric values is
// handed only its least one by key, and each member is handed at most
// once. The members slice is reused and valid only during the call.
func firstNumeric(g *rdf.Graph, coll itemset.Set, prop rdf.IRI, f func(v float64, members []uint32)) {
	n := coll.Len()
	if n == 0 {
		return
	}
	maxID, _ := coll.Select(n - 1)
	claimed := itemset.NewBits(int(maxID) + 1)
	var buf []uint32
	g.ForEachValuePosting(prop, func(o rdf.Term, subjects itemset.Set) bool {
		lit, ok := o.(rdf.Literal)
		if !ok {
			return true
		}
		v, ok := lit.Float()
		if !ok {
			return true
		}
		fresh := unclaimed(buf, subjects, coll, claimed)
		buf = fresh[:0]
		if len(fresh) > 0 {
			claimed.AddSlice(fresh)
			f(v, fresh)
		}
		return claimed.Count() < n
	})
}

// unclaimed returns the members of subjects ∩ coll not yet in claimed,
// written into dst's backing array: the per-value inner loop of
// firstNumeric. The caller claims them.
//
//magnet:hot
func unclaimed(dst []uint32, subjects, coll itemset.Set, claimed *itemset.Bits) []uint32 {
	ids := itemset.IntersectInto(dst, subjects, coll).Buffer()
	n := 0
	for _, id := range ids {
		if !claimed.Has(id) {
			ids[n] = id
			n++
		}
	}
	return ids[:n]
}
