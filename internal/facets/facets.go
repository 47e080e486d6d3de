// Package facets computes the faceted-metadata summaries behind Magnet's
// interface: per-property value histograms over a collection (the
// navigation pane of Figure 1 and the large-collection overview of
// Figure 2) and numeric histograms for range widgets with query previews
// (Figure 5's hatch marks).
package facets

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"magnet/internal/itemset"
	"magnet/internal/obs"
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
	// labelCount counts value labels looked up (TermLabel): the work the
	// overview's cut saves, which tests pin exactly.
	labelCount = obs.NewCounter("facets.labels.count")
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
}

func summarize(ctx context.Context, g *rdf.Graph, sch *schema.Store, coll itemset.Set, opts Options) []Facet {
	start := time.Now()
	// Every intersection result is a subset of coll, so coll's max ID bounds
	// the scratch's epoch-stamp array.
	var maxID uint32
	if n := coll.Len(); n > 0 {
		maxID, _ = coll.Select(n - 1)
	}
	// The collection's membership bitmap, built once and read for every
	// predicate: most postings are counted by bit test against it.
	member := itemset.NewBits(int(maxID) + 1)
	member.AddSlice(coll.Slice())

	// Predicates() is sorted, so facets enter sortFacets in property order.
	// Once ctx is cancelled no further predicate is summarized, and the
	// facets found so far are returned.
	preds := g.Predicates()
	sc := getScratch(int(maxID) + 1)
	facets := make([]Facet, 0, len(preds))
	for _, p := range preds {
		if ctx.Err() != nil {
			break
		}
		if f := summarizeProp(g, sch, p, coll, member, sc, opts); f != nil {
			facets = append(facets, *f)
		}
	}
	scratches.Put(sc)
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

// scratch is one summary's state for summarizeProp, reused across the
// predicates it aggregates and, through scratches, across summaries.
type scratch struct {
	seen  []uint32 // coverage stamps by item ID; a predicate's pass stamps epoch
	epoch uint32
	buf   []uint32 // intersection scratch
	vals  []Value  // the current predicate's counted values, unlabeled
	top   []int    // kthLargestCount's selection
}

// scratches recycles scratch across summaries, so a steady stream
// of overviews allocates little more than the facets it returns.
var scratches sync.Pool

// getScratch returns a recycled or new scratch whose stamp array covers
// item IDs below universe.
func getScratch(universe int) *scratch {
	sc, _ := scratches.Get().(*scratch)
	if sc == nil {
		sc = &scratch{}
	}
	if len(sc.seen) < universe {
		sc.seen, sc.epoch = make([]uint32, universe), 0
	}
	return sc
}

// summarizeProp aggregates one property over the collection, returning nil
// for hidden, uncovered, or unshared-and-unpreferred properties. member is
// the collection's bitmap and sc the summary's scratch.
//
// Each value's posting is counted by bit test against member, in
// O(posting). Only a posting at least itemset.SkewRatio times the
// collection is galloped into it instead, in O(collection × log ratio).
// Only the values that can be shown are labelled, and only those shown
// are copied out (see shownValues).
func summarizeProp(g *rdf.Graph, sch *schema.Store, p rdf.IRI, coll itemset.Set, member *itemset.Bits, sc *scratch, opts Options) *Facet {
	if sch.Hidden(p) {
		return nil
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: an old stamp could equal a new epoch
		clear(sc.seen)
		sc.epoch = 1
	}
	sc.vals = sc.vals[:0]
	coverage, distinct := 0, 0
	shared := false
	g.ForEachValuePosting(p, func(o rdf.Term, subjects itemset.Set) bool {
		var n, fresh int
		if subjects.Len() >= itemset.SkewRatio*coll.Len() {
			inter := itemset.IntersectInto(sc.buf, subjects, coll)
			sc.buf = inter.Buffer()[:0]
			n, fresh = inter.Len(), countCoverage(inter.Slice(), sc.seen, sc.epoch)
		} else {
			n, fresh = countMembers(subjects.Slice(), member, sc.seen, sc.epoch)
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
		sc.vals = append(sc.vals, Value{Term: o, Count: n})
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
	f.Values = shownValues(g, sc, opts)
	return &f
}

// shownValues labels, sorts and truncates sc.vals in place and copies out
// what is shown: nil when nothing is. Ordered by count with a MaxValues
// limit, only the values whose count is at least the MaxValues-th largest
// (the cut) are labelled and sorted. That loses nothing: the display order
// (count desc, label asc, key asc) is total and keys are unique, so the
// top MaxValues are unique and each has a count at least the cut. Ties at
// the cut stay, for the label and key tie-breaks.
func shownValues(g *rdf.Graph, sc *scratch, opts Options) []Value {
	vs := sc.vals
	if opts.ByCount && opts.MaxValues > 0 && len(vs) > opts.MaxValues {
		cut := kthLargestCount(vs, opts.MaxValues, &sc.top)
		n := 0
		for _, v := range vs {
			if v.Count >= cut {
				vs[n] = v
				n++
			}
		}
		vs = vs[:n]
	}
	for i := range vs {
		vs[i].Label = g.TermLabel(vs[i].Term)
	}
	labelCount.Add(uint64(len(vs)))
	sortValues(vs, opts.ByCount)
	if opts.MaxValues > 0 && len(vs) > opts.MaxValues {
		vs = vs[:opts.MaxValues]
	}
	if len(vs) == 0 {
		return nil
	}
	return append([]Value(nil), vs...)
}

// kthLargestCount returns the k-th largest count in vs, which must hold at
// least k values, by insertion into a descending selection of k counts
// (held in *top, reused across calls): O(len(vs) × k), no sort.
func kthLargestCount(vs []Value, k int, top *[]int) int {
	t := (*top)[:0]
	for _, v := range vs {
		c := v.Count
		if len(t) == k && c <= t[k-1] {
			continue
		}
		i := len(t)
		if i < k {
			t = append(t, c)
		} else {
			i = k - 1
		}
		for ; i > 0 && t[i-1] < c; i-- {
			t[i] = t[i-1]
		}
		t[i] = c
	}
	*top = t
	return t[k-1]
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
// numeric value by key, read from the store's column (schema.Numbers);
// items without one are skipped. ok is false when fewer than two items
// contribute (no range to select).
func NumericHistogram(sch *schema.Store, coll itemset.Set, prop rdf.IRI, nbuckets int) (Histogram, bool) {
	if nbuckets <= 0 {
		nbuckets = 10
	}
	// The histogram depends only on min, max and per-bucket counts, so each
	// distinct value is counted once with the number of items it reaches,
	// and read in ascending rank (key) order.
	nums := sch.Numbers(prop)
	vals := nums.Values()
	perRank := make([]int, len(vals))
	count := countRanks(coll.Slice(), nums, perRank)
	if count < 2 {
		return Histogram{Prop: prop}, false
	}
	h := Histogram{Prop: prop, Buckets: make([]int, nbuckets), Count: count}
	first := true
	for r, n := range perRank {
		if n == 0 {
			continue
		}
		v := vals[r]
		if first {
			h.Min, h.Max, first = v, v, false
		}
		if v < h.Min {
			h.Min = v
		}
		if v > h.Max {
			h.Max = v
		}
	}
	if h.Max == h.Min {
		h.Buckets[0] = count
		return h, true
	}
	for r, n := range perRank {
		if n == 0 {
			continue
		}
		b := int(float64(nbuckets) * (vals[r] - h.Min) / (h.Max - h.Min))
		if b == nbuckets {
			b--
		}
		h.Buckets[b] += n
	}
	return h, true
}

// countRanks adds one to perRank[r-1] for each member whose first numeric
// value has rank r, and returns how many members have one.
//
//magnet:hot
func countRanks(members []uint32, nums *schema.Numbers, perRank []int) int {
	count := 0
	for _, id := range members {
		if r := nums.Rank(id); r > 0 {
			perRank[r-1]++
			count++
		}
	}
	return count
}

// Outliers returns the members of coll whose value of prop lies more than
// k standard deviations from the mean over the collection (how the
// Figure 8 walkthrough "clearly shows one state (Alaska) having a much
// larger area than the rest"). Each member's value is its first numeric
// value by key (schema.Numbers); members without one are skipped. The
// mean and variance sum in ascending ID order.
func Outliers(sch *schema.Store, coll itemset.Set, prop rdf.IRI, k float64) itemset.Set {
	nums := sch.Numbers(prop)
	n := 0
	var sum float64
	for _, id := range coll.Slice() {
		if v, ok := nums.Value(id); ok {
			sum += v
			n++
		}
	}
	if n < 3 {
		return itemset.Set{}
	}
	mean := sum / float64(n)
	var varsum float64
	for _, id := range coll.Slice() {
		if v, ok := nums.Value(id); ok {
			d := v - mean
			varsum += d * d
		}
	}
	variance := varsum / float64(n)
	if variance == 0 {
		return itemset.Set{}
	}
	std := math.Sqrt(variance)
	var out []uint32
	for _, id := range coll.Slice() {
		if v, ok := nums.Value(id); ok && math.Abs(v-mean) > k*std {
			out = append(out, id)
		}
	}
	return itemset.FromSorted(out)
}
