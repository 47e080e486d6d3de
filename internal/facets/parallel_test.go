package facets

import (
	"fmt"
	"reflect"
	"testing"

	"magnet/internal/par"
	"magnet/internal/rdf"
	"magnet/internal/schema"
)

// bigFixture builds a graph wide enough (many predicates, many values)
// that parallel summarization actually chunks.
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

// TestSummarizeSerialParallelEquivalence checks the full facet table —
// order, labels, values, counts, coverage — is identical at every pool
// width, for each Options shape the app uses.
func TestSummarizeSerialParallelEquivalence(t *testing.T) {
	g, sch, items := bigFixture()
	shapes := []Options{
		{},
		{ByCount: true, MaxValues: 10},
		{MinCount: 2, IncludeUnshared: true},
		{MaxValues: 3},
	}
	for si, base := range shapes {
		serial := Summarize(g, sch, items, base)
		if len(serial) == 0 {
			t.Fatalf("shape %d: empty serial table", si)
		}
		for _, width := range []int{1, 2, 4, 8} {
			pool := par.New(width)
			opts := base
			opts.Pool = pool
			got := Summarize(g, sch, items, opts)
			pool.Close()
			if !reflect.DeepEqual(got, serial) {
				t.Fatalf("shape %d width %d: facet tables differ\n got %+v\nwant %+v", si, width, got, serial)
			}
		}
	}
}

// TestSummarizeParallelSmallCollections checks the pooled path on the
// degenerate shapes: empty collection, single item, items absent from the
// graph.
func TestSummarizeParallelSmallCollections(t *testing.T) {
	g, sch, items := fixture()
	pool := par.New(4)
	defer pool.Close()
	cases := [][]rdf.IRI{
		nil,
		{},
		{items[0]},
		{rdf.IRI(ex + "missing")},
		items,
	}
	for ci, coll := range cases {
		serial := Summarize(g, sch, coll, Options{ByCount: true})
		got := Summarize(g, sch, coll, Options{ByCount: true, Pool: pool})
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("case %d: differ\n got %+v\nwant %+v", ci, got, serial)
		}
	}
}
