package facets

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"magnet/internal/itemset"
	"magnet/internal/obs"
	"magnet/internal/rdf"
	"magnet/internal/schema"
)

var pTag = rdf.IRI(ex + "tag")

// tieFixture has one facet, tag, over five items, with ties at every
// count and two values sharing a label:
//
//	"a" 5 · ex:b (labelled "b") 4 · "b" 4 · "c" 3 · "d" 3 · "e" 3 · "f" 1 · "g" 1
//
// Item j carries each value whose count exceeds j.
func tieFixture() (*rdf.Graph, *schema.Store, itemset.Set) {
	gb := rdf.NewBuilder()
	iriB := rdf.IRI(ex + "b")
	gb.Add(iriB, rdf.Label, rdf.NewString("b"))
	values := []struct {
		o rdf.Term
		n int
	}{
		{rdf.NewString("a"), 5}, {iriB, 4}, {rdf.NewString("b"), 4},
		{rdf.NewString("c"), 3}, {rdf.NewString("d"), 3}, {rdf.NewString("e"), 3},
		{rdf.NewString("f"), 1}, {rdf.NewString("g"), 1},
	}
	var items []rdf.IRI
	for j := 0; j < 5; j++ {
		it := rdf.IRI(fmt.Sprintf("%sitem/%d", ex, j))
		items = append(items, it)
		for _, v := range values {
			if v.n > j {
				gb.Add(it, pTag, v.o)
			}
		}
	}
	g := gb.Freeze()
	return g, schema.NewStore(g), g.SubjectIDsOf(items)
}

// fullSortValues is the overview's values for p the long way: count and
// label every value, sort them all in display order, truncate. nil when
// no value is kept.
func fullSortValues(g *rdf.Graph, p rdf.IRI, coll itemset.Set, opts Options) []Value {
	var vs []Value
	g.ForEachValuePosting(p, func(o rdf.Term, subjects itemset.Set) bool {
		n := subjects.IntersectCount(coll)
		if n > 0 && (opts.MinCount <= 1 || n >= opts.MinCount) {
			vs = append(vs, Value{Term: o, Label: g.TermLabel(o), Count: n})
		}
		return true
	})
	sort.SliceStable(vs, func(i, j int) bool {
		if vs[i].Count != vs[j].Count {
			return vs[i].Count > vs[j].Count
		}
		if vs[i].Label != vs[j].Label {
			return vs[i].Label < vs[j].Label
		}
		return vs[i].Term.Key() < vs[j].Term.Key()
	})
	if opts.MaxValues > 0 && len(vs) > opts.MaxValues {
		vs = vs[:opts.MaxValues]
	}
	return vs
}

// bigFixture builds a graph with many predicates and many values: 200
// items over 30 properties of varying value cardinality and coverage.
func bigFixture() (*rdf.Graph, *schema.Store, []rdf.IRI) {
	gb := rdf.NewBuilder()
	var items []rdf.IRI
	for i := 0; i < 200; i++ {
		it := rdf.IRI(fmt.Sprintf("%sitem/%03d", ex, i))
		items = append(items, it)
		gb.Add(it, rdf.Type, rdf.IRI(ex+"Thing"))
		for p := 0; p < 30; p++ {
			prop := rdf.IRI(fmt.Sprintf("%sprop/%02d", ex, p))
			// Value cardinality varies per property: some shared heavily,
			// some nearly distinct, some absent for most items.
			switch {
			case p%5 == 4 && i%7 != 0:
				// sparse property
			case p%3 == 0:
				gb.Add(it, prop, rdf.IRI(fmt.Sprintf("%sval/%d", ex, i%4)))
			case p%3 == 1:
				gb.Add(it, prop, rdf.NewString(fmt.Sprintf("v%d", i%(p+2))))
			default:
				gb.Add(it, prop, rdf.NewInteger(int64(i%(p+5))))
			}
		}
	}
	g := gb.Freeze()
	sch := schema.NewStore(g)
	return g, sch, items
}

// TestOverviewTopValuesMatchFullSort compares every facet's values in the
// overview (by count, cut before labelling) with a full label-sort-
// truncate, for MaxValues from 1 to one past the most values a facet has:
// on the tie fixture (equal counts at every cut, equal labels with
// different keys) and on bigFixture's 30 properties.
func TestOverviewTopValuesMatchFullSort(t *testing.T) {
	tg, tsch, tcoll := tieFixture()
	bg, bsch, bitems := bigFixture()
	cases := []struct {
		name string
		g    *rdf.Graph
		sch  *schema.Store
		coll itemset.Set
	}{
		{"ties", tg, tsch, tcoll},
		{"big", bg, bsch, bg.SubjectIDsOf(bitems)},
		{"big-half", bg, bsch, bg.SubjectIDsOf(bitems[:100])},
	}
	for _, c := range cases {
		most := 0
		for _, f := range SummarizeContext(context.Background(), c.g, c.sch, c.coll, Options{ByCount: true}) {
			most = max(most, len(f.Values))
		}
		if most < 2 {
			t.Fatalf("%s: at most %d values per facet", c.name, most)
		}
		for k := 1; k <= most+1; k++ {
			for _, minCount := range []int{0, 2} {
				opts := Options{ByCount: true, MaxValues: k, MinCount: minCount}
				fs := SummarizeContext(context.Background(), c.g, c.sch, c.coll, opts)
				if len(fs) == 0 {
					t.Fatalf("%s k=%d: no facets", c.name, k)
				}
				for _, f := range fs {
					if want := fullSortValues(c.g, f.Prop, c.coll, opts); !reflect.DeepEqual(f.Values, want) {
						t.Fatalf("%s k=%d min=%d %s:\n got %+v\nwant %+v", c.name, k, minCount, f.Prop, f.Values, want)
					}
				}
			}
		}
	}
}

// TestOverviewLabelsOnlyShownValues counts the overview's label lookups
// exactly on the tie fixture: the values shown plus the ties at the cut,
// never the rest. Ordered alphabetically (no cut possible) every value is
// labelled.
func TestOverviewLabelsOnlyShownValues(t *testing.T) {
	g, sch, coll := tieFixture()
	labels := obs.Default.Counter("facets.labels.count")
	for _, c := range []struct {
		opts Options
		want uint64
	}{
		{Options{ByCount: true, MaxValues: 1}, 1}, // "a"
		{Options{ByCount: true, MaxValues: 2}, 3}, // cut 4: "a", ex:b, "b"
		{Options{ByCount: true, MaxValues: 3}, 3},
		{Options{ByCount: true, MaxValues: 4}, 6}, // cut 3: three ties for one place
		{Options{ByCount: true, MaxValues: 7}, 8}, // cut 1
		{Options{ByCount: true, MaxValues: 8}, 8},
		{Options{ByCount: true}, 8},
		{Options{MaxValues: 2}, 8},
	} {
		before := labels.Value()
		fs := SummarizeContext(context.Background(), g, sch, coll, c.opts)
		if got := labels.Value() - before; got != c.want {
			t.Errorf("%+v: %d values labelled, want %d", c.opts, got, c.want)
		}
		if len(fs) != 1 || fs[0].Distinct != 8 {
			t.Fatalf("%+v: facets %+v, want tag with 8 distinct values", c.opts, fs)
		}
	}
}
