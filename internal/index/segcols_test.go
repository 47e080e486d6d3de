package index

import (
	"math"
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
	return b.Freeze()
}

func TestTextColumnsRoundTrip(t *testing.T) {
	ix := segTestIndex(t)
	r, err := FromTextColumns(nil, ix.Columns())
	if err != nil {
		t.Fatalf("FromTextColumns: %v", err)
	}

	if r.Len() != ix.Len() {
		t.Errorf("Len = %d, want %d", r.Len(), ix.Len())
	}
	for _, term := range []string{"parslei", "parsley", "walnut", "tomato", "nothere", "doom"} {
		if got, want := r.DocFreq(term), ix.DocFreq(term); got != want {
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
	b.Add("d1", map[string]float64{"parsley": 2, "feta": 1, "olive": 3})
	b.Add("d2", map[string]float64{"parsley": 1, "basil": 2, "tomato": 2})
	b.Add("d3", map[string]float64{"walnut": 4, "sugar": 1})
	// A doc carrying a pinned coordinate term: its stored frequency is the
	// final weight and must survive serialization via the pinned bitset.
	b.Add("d4", map[string]float64{"num|servings=4": 0.5, "parsley": 1})
	return b.Freeze()
}

func TestVectorColumnsRoundTrip(t *testing.T) {
	v := segTestVectors(t)
	r, err := FromVectorColumns(v.Columns())
	if err != nil {
		t.Fatalf("FromVectorColumns: %v", err)
	}

	if r.Len() != v.Len() {
		t.Errorf("Len = %d, want %d", r.Len(), v.Len())
	}
	gi, wi := r.IDs(), v.IDs()
	if len(gi) != len(wi) {
		t.Fatalf("IDs = %v, want %v", gi, wi)
	}
	for i := range wi {
		if gi[i] != wi[i] {
			t.Errorf("IDs[%d] = %q, want %q", i, gi[i], wi[i])
		}
	}
	for _, term := range []string{"parsley", "walnut", "doom", "nothere"} {
		if got, want := r.DocFreq(term), v.DocFreq(term); got != want {
			t.Errorf("DocFreq(%q) = %d, want %d", term, got, want)
		}
		if got, want := r.IDF(term), v.IDF(term); math.Abs(got-want) > 1e-12 {
			t.Errorf("IDF(%q) = %g, want %g", term, got, want)
		}
	}
	for _, doc := range []string{"d1", "d2", "d3", "d4", "never"} {
		if got, want := r.Has(doc), v.Has(doc); got != want {
			t.Errorf("Has(%q) = %v, want %v", doc, got, want)
		}
		gv, wv := r.Vector(doc), v.Vector(doc)
		if len(gv) != len(wv) {
			t.Errorf("Vector(%q) = %v, want %v", doc, gv, wv)
			continue
		}
		for term, w := range wv {
			if math.Abs(gv[term]-w) > 1e-12 {
				t.Errorf("Vector(%q)[%q] = %g, want %g", doc, term, gv[term], w)
			}
		}
	}
	if got, want := r.Similarity("d1", "d2"), v.Similarity("d1", "d2"); math.Abs(got-want) > 1e-12 {
		t.Errorf("Similarity(d1,d2) = %g, want %g", got, want)
	}
	got := r.SimilarTo(v.Vector("d1"), 5, nil)
	want := v.SimilarTo(v.Vector("d1"), 5, nil)
	if len(got) != len(want) {
		t.Fatalf("SimilarTo: %v, want %v", got, want)
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > 1e-12 {
			t.Errorf("SimilarTo[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}
