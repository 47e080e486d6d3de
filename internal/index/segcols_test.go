package index

import (
	"math"
	"reflect"
	"testing"
)

// segTestIndex indexes a handful of docs across two fields.
func segTestIndex(t *testing.T) *TextIndex {
	t.Helper()
	b := NewTextBuilder(nil)
	b.Index("d1", "title", "Greek salad with parsley")
	b.Index("d1", "body", "olives feta parsley lemon")
	b.Index("d2", "title", "Italian pasta")
	b.Index("d2", "body", "tomato basil parsley")
	b.Index("d3", "title", "Walnut cake")
	b.Index("d3", "body", "walnuts sugar butter")
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
			gm, wm := r.Matching(q, field), ix.Matching(q, field)
			if len(gm) != len(wm) {
				t.Errorf("Matching(%q,%q) = %v, want %v", q, field, gm, wm)
				continue
			}
			for i := range wm {
				if gm[i] != wm[i] {
					t.Errorf("Matching(%q,%q)[%d] = %q, want %q", q, field, i, gm[i], wm[i])
				}
			}
		}
	}
	for _, doc := range []string{"d1", "d2", "d3", "never"} {
		gf, wf := r.Fields(doc), ix.Fields(doc)
		if len(gf) != len(wf) {
			t.Errorf("Fields(%q) = %v, want %v", doc, gf, wf)
			continue
		}
		for i := range wf {
			if gf[i] != wf[i] {
				t.Errorf("Fields(%q)[%d] = %q, want %q", doc, i, gf[i], wf[i])
			}
			gc, wc := r.FieldTermCounts(doc, wf[i]), ix.FieldTermCounts(doc, wf[i])
			if len(gc) != len(wc) {
				t.Errorf("FieldTermCounts(%q,%q) = %v, want %v", doc, wf[i], gc, wc)
				continue
			}
			for term, n := range wc {
				if gc[term] != n {
					t.Errorf("FieldTermCounts(%q,%q)[%q] = %d, want %d", doc, wf[i], term, gc[term], n)
				}
			}
		}
	}
}

// segTestVectors builds a store with overlapping docs and a pinned numeric
// prefix.
func segTestVectors(t *testing.T) *VectorStore {
	t.Helper()
	b := NewVectorBuilder()
	b.PinnedPrefix = "num|"
	b.Add(d1, map[string]float64{"parsley": 2, "feta": 1, "olive": 3})
	b.Add(d2, map[string]float64{"parsley": 1, "basil": 2, "tomato": 2})
	b.Add(d3, map[string]float64{"walnut": 4, "sugar": 1})
	// A doc carrying a pinned coordinate term: its stored frequency is the
	// weight before normalization, compiled into the row.
	b.Add(d4, map[string]float64{"num|servings=4": 0.5, "parsley": 1})
	return b.Freeze(nil)
}

func TestVectorColumnsRoundTrip(t *testing.T) {
	v := segTestVectors(t)
	r, err := FromVectorColumns(v.Columns(), nil)
	if err != nil {
		t.Fatalf("FromVectorColumns: %v", err)
	}
	if gi, wi := r.docIDs(), v.docIDs(); !reflect.DeepEqual(gi, wi) || len(wi) != 4 {
		t.Fatalf("IDs = %v, want %v", gi, wi)
	}
	for _, term := range []string{"parsley", "walnut", "doom", "nothere"} {
		if got, want := r.docFreqOf(term), v.docFreqOf(term); got != want {
			t.Errorf("DocFreq(%q) = %d, want %d", term, got, want)
		}
		if got, want := r.idfOf(term), v.idfOf(term); math.Abs(got-want) > 1e-12 {
			t.Errorf("IDF(%q) = %g, want %g", term, got, want)
		}
	}
	// parsley: log(1+1)·log(4/3); the pinned coordinate keeps its 0.5.
	wp := math.Log(2) * math.Log(4.0/3.0)
	if got, norm := r.vector(d4), math.Sqrt(wp*wp+0.25); math.Abs(got["num|servings=4"]-0.5/norm) > 1e-12 || math.Abs(got["parsley"]-wp/norm) > 1e-12 {
		t.Errorf("pinned row = %v, want num|servings=4 %g, parsley %g", got, 0.5/norm, wp/norm)
	}
	for _, doc := range []uint32{d1, d2, d3, d4, missing} {
		gv, wv := r.vector(doc), v.vector(doc)
		if len(gv) != len(wv) {
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
