package vsm

import (
	"fmt"
	"reflect"
	"testing"

	"magnet/internal/par"
	"magnet/internal/rdf"
	"magnet/internal/schema"
)

func corpusGraph(n int) (*rdf.Graph, *schema.Store, []rdf.IRI) {
	gb := rdf.NewBuilder()
	var items []rdf.IRI
	for i := 0; i < n; i++ {
		it := rdf.IRI(fmt.Sprintf("http://example.org/doc/%03d", i))
		items = append(items, it)
		gb.Add(it, rdf.Type, rdf.IRI("http://example.org/Doc"))
		gb.Add(it, rdf.DCTitle, rdf.NewString(fmt.Sprintf("title %d alpha beta", i%9)))
		gb.Add(it, rdf.IRI("http://example.org/group"), rdf.IRI(fmt.Sprintf("http://example.org/g/%d", i%5)))
		gb.Add(it, rdf.IRI("http://example.org/score"), rdf.NewInteger(int64(i%37)))
	}
	g := gb.Freeze()
	return g, schema.NewStore(g), items
}

// TestIndexAllSerialParallelEquivalence checks a pooled IndexAll produces
// a store whose vectors, similarity lists, and centroid are identical to a
// serial build.
func TestIndexAllSerialParallelEquivalence(t *testing.T) {
	g, sch, items := corpusGraph(120)
	serial := New(g, sch, Options{})
	serial.indexItems(items...)

	for _, width := range []int{1, 4, 8} {
		pool := par.New(width)
		m := New(g, sch, Options{})
		m.SetPool(pool)
		m.indexItems(items...)
		for _, it := range items {
			if !reflect.DeepEqual(m.Vectorize(it), serial.Vectorize(it)) {
				t.Fatalf("width %d: vector for %s differs", width, it)
			}
		}
		wantSim := serial.SimilarToItem(items[0], 15)
		gotSim := m.SimilarToItem(items[0], 15)
		if !reflect.DeepEqual(gotSim, wantSim) {
			t.Fatalf("width %d: SimilarToItem differs\n got %v\nwant %v", width, gotSim, wantSim)
		}
		wantCen := serial.Centroid(g.SubjectIDsOf(items))
		gotCen := m.Centroid(g.SubjectIDsOf(items))
		if !reflect.DeepEqual(gotCen, wantCen) {
			t.Fatalf("width %d: centroid differs", width)
		}
		pool.Close()
	}
}
