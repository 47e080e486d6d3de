package index

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// segTestIndex indexes a handful of docs across two fields.
func segTestIndex(t *testing.T) *TextIndex {
	t.Helper()
	b := NewTextBuilder(nil)
	b.Index(d1, "title", "Greek salad with parsley")
	b.Index(d1, "body", "olives feta parsley lemon")
	b.Index(d2, "title", "Italian pasta")
	b.Index(d2, "body", "tomato basil parsley")
	b.Index(d3, "title", "Walnut cake")
	b.Index(d3, "body", "walnuts sugar butter")
	return freezeText(b)
}

func TestTextColumnsRoundTrip(t *testing.T) {
	ix := segTestIndex(t)
	r, err := FromTextColumns(nil, ix.Columns())
	if err != nil {
		t.Fatalf("FromTextColumns: %v", err)
	}

	if r.c.Live != ix.c.Live {
		t.Errorf("live documents = %d, want %d", r.c.Live, ix.c.Live)
	}
	for _, term := range []string{"parslei", "parsley", "walnut", "tomato", "nothere", "doom"} {
		if got, want := r.docFreq(term), ix.docFreq(term); got != want {
			t.Errorf("DocFreq(%q) = %d, want %d", term, got, want)
		}
		if got, want := r.Surface(term), ix.Surface(term); got != want {
			t.Errorf("Surface(%q) = %q, want %q", term, got, want)
		}
	}
	for _, field := range []string{"", "title", "body", "missing"} {
		for _, q := range []string{"parsley", "walnut cake", "basil", "doomed"} {
			got, want := r.Search(q, field, 10), ix.Search(q, field, 10)
			if len(got) != len(want) {
				t.Errorf("Search(%q,%q): %v, want %v", q, field, got, want)
				continue
			}
			for i := range want {
				if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > 1e-12 {
					t.Errorf("Search(%q,%q)[%d] = %+v, want %+v", q, field, i, got[i], want[i])
				}
			}
			if gm, wm := r.Matching(q, field).Slice(), ix.Matching(q, field).Slice(); !reflect.DeepEqual(gm, wm) {
				t.Errorf("Matching(%q,%q) = %v, want %v", q, field, gm, wm)
			}
		}
	}
	if !reflect.DeepEqual(r.c.DF, ix.c.DF) {
		t.Errorf("DF = %v, want %v", r.c.DF, ix.c.DF)
	}
	for _, doc := range []uint32{d1, d2, d3, missing} {
		if got, want := r.DocLength(doc), ix.DocLength(doc); got != want || (doc != missing && want == 0) {
			t.Errorf("DocLength(%d) = %d, want %d", doc, got, want)
		}
	}
}

// TestTextColumnsOrderFree: the compiled text image is a function of the
// set of Index calls alone — deep-equal under every tried permutation of
// their order, repeated (id, field) pairs and unindexed IDs included.
func TestTextColumnsOrderFree(t *testing.T) {
	type call struct {
		id          uint32
		field, text string
	}
	var calls []call
	for i := 0; i < 30; i++ {
		calls = append(calls, call{
			id:    uint32((i * 7) % 13 * 2), // even IDs only: odd rows stay empty
			field: []string{"title", "body", "note"}[i%3],
			text:  fmt.Sprintf("walnut w%d parsley%s", i%4, []string{"", " olives", " olive oil"}[i%3]),
		})
	}
	build := func(order []int) TextColumns {
		b := NewTextBuilder(nil)
		for _, i := range order {
			b.Index(calls[i].id, calls[i].field, calls[i].text)
		}
		return b.Columns()
	}
	rng := rand.New(rand.NewSource(5))
	want := build(rng.Perm(len(calls)))
	for round := 0; round < 20; round++ {
		if got := build(rng.Perm(len(calls))); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: the image depends on the Index order", round)
		}
	}
	ix, err := FromTextColumns(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Matching("walnut", AnyField).Slice(); len(got) != 13 || got[0] != 0 || got[12] != 24 {
		t.Errorf("Matching(walnut) = %v, want the 13 even IDs 0..24", got)
	}
	if got := ix.DocLength(1); got != 0 {
		t.Errorf("DocLength(1) = %d, want 0: no document holds ID 1", got)
	}
}

// segTestVectors builds a store with overlapping docs and a pinned numeric
// prefix.
func segTestVectors(t *testing.T) *VectorStore {
	t.Helper()
	b := NewVectorBuilder()
	b.PinnedPrefix = "num|"
	b.addFreqs(d1, map[string]float64{"parsley": 2, "feta": 1, "olive": 3})
	b.addFreqs(d2, map[string]float64{"parsley": 1, "basil": 2, "tomato": 2})
	b.addFreqs(d3, map[string]float64{"walnut": 4, "sugar": 1})
	// A doc carrying a pinned coordinate term: its stored frequency is the
	// weight before normalization, compiled into the row.
	b.addFreqs(d4, map[string]float64{"num|servings=4": 0.5, "parsley": 1})
	return b.Freeze(nil)
}

func TestVectorColumnsRoundTrip(t *testing.T) {
	v := segTestVectors(t)
	r, err := FromVectorColumns(v.Columns(), nil)
	if err != nil {
		t.Fatalf("FromVectorColumns: %v", err)
	}
	if r.docs() != v.docs() {
		t.Fatalf("row count %d, want %d", r.docs(), v.docs())
	}
	// parsley: log(1+1)·log(4/3); the pinned coordinate keeps its 0.5.
	wp := math.Log(2) * math.Log(4.0/3.0)
	if got, norm := r.vector(d4), math.Sqrt(wp*wp+0.25); math.Abs(got["num|servings=4"]-0.5/norm) > 1e-12 || math.Abs(got["parsley"]-wp/norm) > 1e-12 {
		t.Errorf("pinned row = %v, want num|servings=4 %g, parsley %g", got, 0.5/norm, wp/norm)
	}
	for _, doc := range []uint32{d1, d2, d3, d4, missing} {
		gv, wv := r.vector(doc), v.vector(doc)
		if len(gv) != len(wv) || (doc != missing && len(wv) == 0) {
			t.Errorf("vector(%d) = %v, want %v", doc, gv, wv)
			continue
		}
		for term, w := range wv {
			if math.Abs(gv[term]-w) > 1e-12 {
				t.Errorf("vector(%d)[%q] = %g, want %g", doc, term, gv[term], w)
			}
		}
	}
	if got, want := r.Similarity(d1, d2), v.Similarity(d1, d2); math.Abs(got-want) > 1e-12 {
		t.Errorf("Similarity(d1,d2) = %g, want %g", got, want)
	}
	got, want := r.SimilarToDoc(d1, 5), v.SimilarToDoc(d1, 5)
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("SimilarToDoc: %v, want %v", got, want)
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > 1e-12 {
			t.Errorf("SimilarToDoc[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}
