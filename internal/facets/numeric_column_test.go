package facets

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"magnet/internal/itemset"
	"magnet/internal/obs"
	"magnet/internal/rdf"
	"magnet/internal/schema"
)

// firstNumeric is the posting walk NumericHistogram and Outliers read
// values through before the first-numeric column, kept as the column's
// oracle. It walks prop's values in key order and calls f with each
// parseable numeric value and the collection members it is the first such
// value of. The members slice is reused and valid only during the call.
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
// written into dst's backing array.
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

// walkHistogram is NumericHistogram over firstNumeric: one run per value,
// in key order.
func walkHistogram(g *rdf.Graph, coll itemset.Set, prop rdf.IRI, nbuckets int) (Histogram, bool) {
	if nbuckets <= 0 {
		nbuckets = 10
	}
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

// walkOutliers is Outliers over firstNumeric, summing in ascending ID
// order.
func walkOutliers(g *rdf.Graph, coll itemset.Set, prop rdf.IRI, k float64) itemset.Set {
	ids := coll.Slice()
	value := make([]float64, len(ids))
	has := make([]bool, len(ids))
	firstNumeric(g, coll, prop, func(v float64, members []uint32) {
		for _, id := range members {
			i, _ := slices.BinarySearch(ids, id)
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
	for i, id := range ids {
		if has[i] && math.Abs(value[i]-mean) > k*std {
			out = append(out, id)
		}
	}
	return itemset.FromSorted(out)
}

// histResult is one histogram call's outcome.
type histResult struct {
	h  Histogram
	ok bool
}

func histOf(f func() (Histogram, bool)) (r histResult) {
	r.h, r.ok = f()
	return r
}

// sameHistogram compares two results exactly, Min and Max by bits (so
// -0 ≠ +0).
func sameHistogram(a, b histResult) bool {
	return a.ok == b.ok && a.h.Prop == b.h.Prop && a.h.Count == b.h.Count &&
		math.Float64bits(a.h.Min) == math.Float64bits(b.h.Min) &&
		math.Float64bits(a.h.Max) == math.Float64bits(b.h.Max) &&
		slices.Equal(a.h.Buckets, b.h.Buckets)
}

// numericPool is the literal mix numericGraph draws values from:
// integers, decimals, doubles incl. both zeros and the non-finite forms
// (which read as non-numeric), numeric plain
// strings, malformed numerals, dates and a malformed date, booleans and
// IRIs. Lexical forms share prefixes ("1", "10", "1e1") so key order and
// numeric order disagree.
func numericPool() []rdf.Term {
	day := time.Date(2003, 7, 1, 0, 0, 0, 0, time.UTC)
	var pool []rdf.Term
	for _, v := range []int64{-7, 0, 1, 2, 3, 9, 10, 11, 25, 100, 400} {
		pool = append(pool, rdf.NewInteger(v))
	}
	for _, lex := range []string{"0", "-0", "0.0", "1e1", "2.5", "-3.25", "NaN", "Inf", "-Inf"} {
		pool = append(pool, rdf.Literal{Lexical: lex, Datatype: rdf.XSDDouble})
	}
	pool = append(pool,
		rdf.Literal{Lexical: "7.5", Datatype: rdf.XSDDecimal},
		rdf.NewString("42"),
		rdf.NewString("about an hour"),
		rdf.Literal{Lexical: "12x", Datatype: rdf.XSDInteger},
		rdf.NewTime(day),
		rdf.NewTime(day.AddDate(0, 0, 9)),
		rdf.Literal{Lexical: "2003-07-04", Datatype: rdf.XSDDate},
		rdf.Literal{Lexical: "2003-13-45", Datatype: rdf.XSDDate},
		rdf.NewBool(true),
		rdf.IRI(ex+"many"),
		rdf.IRI(ex+"few"),
	)
	return pool
}

// numericGraph builds a seeded random graph over n subjects: each carries
// 0–3 values of p drawn from numericPool (the non-finite literals only
// when nonFinite), and every subject carries a type, so some have no value
// of p.
func numericGraph(rng *rand.Rand, n int, p rdf.IRI, nonFinite bool) *rdf.Graph {
	gb := rdf.NewBuilder()
	pool := numericPool()
	for i := 0; i < n; i++ {
		it := rdf.IRI(fmt.Sprintf("%sitem/%04d", ex, i))
		gb.Add(it, rdf.Type, rdf.IRI(ex+"Thing"))
		for j := rng.Intn(4); j > 0; j-- {
			o := pool[rng.Intn(len(pool))]
			if lit, ok := o.(rdf.Literal); ok && !nonFinite && (lit.Lexical == "NaN" || lit.Lexical == "Inf" || lit.Lexical == "-Inf") {
				continue
			}
			gb.Add(it, p, o)
		}
	}
	return gb.Freeze()
}

// TestNumericColumnMatchesPostingWalk compares NumericHistogram and
// Outliers, which read the store's first-numeric column, with the posting
// walk they replaced, on seeded random graphs: multi-valued properties,
// malformed and temporal literals, IRI values, NaN, ±Inf and both zeros,
// subjects without a value, and views holding IDs past the subject table.
// Every call compares: no reader panics, whatever literals the view holds.
func TestNumericColumnMatchesPostingWalk(t *testing.T) {
	p := rdf.IRI(ex + "n")
	rng := rand.New(rand.NewSource(11))
	for graph := 0; graph < 12; graph++ {
		n := 20 + rng.Intn(300)
		g := numericGraph(rng, n, p, graph%3 == 2)
		sch := schema.NewStore(g)
		for trial := 0; trial < 40; trial++ {
			var ids []uint32
			keep := rng.Float64()
			for id := 0; id < n; id++ {
				if rng.Float64() < keep {
					ids = append(ids, uint32(id))
				}
			}
			if trial%4 == 0 {
				ids = append(ids, uint32(n), uint32(n+3+rng.Intn(50)))
			}
			coll := itemset.FromSorted(ids)
			for _, prop := range []rdf.IRI{p, rdf.Type, rdf.IRI(ex + "absent")} {
				nb := 1 + rng.Intn(24)
				got := histOf(func() (Histogram, bool) { return NumericHistogram(sch, coll, prop, nb) })
				want := histOf(func() (Histogram, bool) { return walkHistogram(g, coll, prop, nb) })
				if !sameHistogram(got, want) {
					t.Fatalf("graph %d trial %d %s: histogram = %+v; posting walk %+v", graph, trial, prop, got, want)
				}
				k := []float64{0.5, 1, 1.5, 2}[rng.Intn(4)]
				if got, want := Outliers(sch, coll, prop, k), walkOutliers(g, coll, prop, k); !slices.Equal(got.Slice(), want.Slice()) {
					t.Fatalf("graph %d trial %d %s k=%v: Outliers = %v; posting walk %v", graph, trial, prop, k, got.Slice(), want.Slice())
				}
			}
		}
	}
}

// TestNumericColumnConcurrentReaders runs a predicate's first histogram
// from 8 goroutines on a fresh store: the column is compiled once, and
// every reader gets the serial result.
func TestNumericColumnConcurrentReaders(t *testing.T) {
	p := rdf.IRI(ex + "n")
	g := numericGraph(rand.New(rand.NewSource(5)), 400, p, false)
	coll := g.AllSubjectIDs()
	want := histOf(func() (Histogram, bool) { return NumericHistogram(schema.NewStore(g), coll, p, 12) })
	if !want.ok {
		t.Fatalf("serial histogram = %+v", want)
	}
	compiles := obs.Default.Counter("schema.numbers.compile.count")
	before := compiles.Value()
	sch := schema.NewStore(g)
	got := make([]histResult, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = histOf(func() (Histogram, bool) { return NumericHistogram(sch, coll, p, 12) })
		}()
	}
	wg.Wait()
	for i, r := range got {
		if !sameHistogram(r, want) {
			t.Errorf("reader %d: histogram = %+v, serial %+v", i, r, want)
		}
	}
	if n := compiles.Value() - before; n != 1 {
		t.Errorf("8 concurrent first readers compiled %d columns, want 1", n)
	}
}
