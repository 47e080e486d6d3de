package query

import (
	"testing"

	"magnet/internal/index"
	"magnet/internal/itemset"
	"magnet/internal/rdf"
	"magnet/internal/schema"
)

// EvalWithinSet's contract: for every predicate and candidate set, the
// result equals candidates ∩ Eval(p) — the fast paths (posting
// intersection, per-candidate probes, lazy complement) may never change
// the answer, only how it is computed.
func TestEvalWithinMatchesIntersect(t *testing.T) {
	e, items := fixture()
	all := e.NewSet(items...).IDs()
	half := itemset.FromSorted(all.Slice()[:3])
	preds := []Predicate{
		Property{pCuisine, greek},
		Property{pCuisine, rdf.IRI(ex + "Thai")}, // empty posting
		PathProperty{Path: []rdf.IRI{pCuisine}, Value: mexican},
		Keyword{Text: "walnut"},
		TermMatch{Term: "walnut"},
		Between(pServings, 2, 6),
		AtLeast(pServings, 5),
		Not{Property{pCuisine, greek}},
		Not{Keyword{Text: "walnut"}},
		And{[]Predicate{Property{pCuisine, greek}, Between(pServings, 2, 9)}},
		And{nil},
		Or{[]Predicate{Property{pCuisine, mexican}, Keyword{Text: "feta"}}},
		maxValues{prop: pIngredient, max: 1}, // custom: fallback path
	}
	cands := map[string]itemset.Set{
		"empty": {},
		"all":   all,
		"half":  half,
	}
	for _, p := range preds {
		want := func(c itemset.Set) itemset.Set {
			return e.FromIDs(c).Intersect(p.Eval(e)).IDs()
		}
		for name, c := range cands {
			got := EvalWithinSet(e, p, c)
			if !got.Equal(want(c)) {
				t.Errorf("%s within %s = %v, want %v", p.Key(), name, got.Slice(), want(c).Slice())
			}
		}
	}
}

// The Range fast path switches from per-candidate probes to full
// evaluation past rangeWithinCutoff; both sides of the cutoff must agree
// with the naive intersection.
func TestEvalWithinRangeCutoff(t *testing.T) {
	gb := rdf.NewBuilder()
	n := rangeWithinCutoff + 40
	var items []rdf.IRI
	for i := 0; i < n; i++ {
		it := rdf.IRI(ex + "bulk" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260)))
		gb.Add(it, pServings, rdf.NewInteger(int64(i%17)))
		items = append(items, it)
	}
	g := gb.Freeze()
	e := NewEngine(g, schema.NewStore(g), index.NewTextBuilder(nil).Freeze(), func() []rdf.IRI { return items })

	p := Between(pServings, 3, 11)
	all := e.Universe().IDs()
	small := itemset.FromSorted(all.Slice()[:rangeWithinCutoff/2])
	for name, c := range map[string]itemset.Set{"small": small, "large": all} {
		want := e.FromIDs(c).Intersect(p.Eval(e)).IDs()
		if got := EvalWithinSet(e, p, c); !got.Equal(want) {
			t.Errorf("%s candidates: got %d ids, want %d", name, got.Len(), want.Len())
		}
	}
}

// Candidate IDs outside the universe still behave: Not must clip to the
// universe (its complement is only defined there), everything else
// intersects postings directly.
func TestEvalWithinNotClipsToUniverse(t *testing.T) {
	e, items := fixture()
	// Shrink the universe to the first three items but keep candidates
	// spanning all five.
	short := items[:3]
	allIDs := e.NewSet(items...).IDs()
	e.SetUniverseIDs(func() itemset.Set { return e.NewSet(short...).IDs() })

	p := Not{Property{pCuisine, greek}}
	got := EvalWithinSet(e, p, allIDs)
	want := e.FromIDs(allIDs).Intersect(p.Eval(e)).IDs()
	if !got.Equal(want) {
		t.Fatalf("not within out-of-universe candidates = %v, want %v", got.Slice(), want.Slice())
	}
	for _, id := range got.Slice() {
		if !e.Universe().IDs().Has(id) {
			t.Fatalf("result id %d escapes the universe", id)
		}
	}
}

// KeysCache: Query.With/Without/Negate maintain the cached term keys, so
// Key() after any edit chain equals a from-scratch rebuild — and the
// cached path must not alias the source query's backing arrays.
func TestKeysCacheMaintainedByEdits(t *testing.T) {
	q := NewQuery(Property{pCuisine, greek})
	q = q.With(Property{pIngredient, walnut})
	q = q.With(Keyword{Text: "salad"})
	check := func(label string, q Query) {
		t.Helper()
		if got, want := q.Key(), NewQuery(q.Terms...).Key(); got != want {
			t.Errorf("%s: cached key %q, rebuilt %q", label, got, want)
		}
	}
	check("with×3", q)

	// A second value for the same property appends; re-adding an existing
	// constraint is a no-op that must keep the cached keys intact.
	dup := q.With(Property{pCuisine, mexican})
	check("append same property", dup)
	same := dup.With(Property{pCuisine, greek})
	check("dedup no-op", same)
	check("source after edits", q)

	rm := q.Without(1)
	check("without", rm)
	neg := q.Negate(0)
	check("negate", neg)
	check("source after without/negate", q)

	if NewQuery().Key() != KeyForTermKeys(nil) {
		t.Error("empty query key mismatch")
	}
}
