package query

import (
	"testing"

	"magnet/internal/rdf"
)

// Keys must be canonical, stable, and collision-free across predicate
// kinds — they identify constraints for dedup, history and web routing.
func TestPredicateKeysDistinct(t *testing.T) {
	preds := []Predicate{
		Property{pCuisine, greek},
		Property{pCuisine, mexican},
		Property{pIngredient, greek}, // same value, different property
		PathProperty{Path: []rdf.IRI{pIngredient, pCuisine}, Value: greek},
		Keyword{Text: "greek"},
		Keyword{Text: "greek", Field: "title"},
		TermMatch{Term: "greek"},
		TermMatch{Term: "greek", Field: "title"},
		between(pServings, 1, 5),
		AtLeast(pServings, 1),
		AtMost(pServings, 5),
		Not{Property{pCuisine, greek}},
		And{[]Predicate{Property{pCuisine, greek}}},
		Or{[]Predicate{Property{pCuisine, greek}}},
		AnyValueIn{Prop: pIngredient, Values: []rdf.IRI{greek}},
		AllValuesIn{Prop: pIngredient, Values: []rdf.IRI{greek}},
	}
	seen := map[string]int{}
	for i, p := range preds {
		k := p.Key()
		if k == "" {
			t.Errorf("predicate %d has empty key", i)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between %d and %d: %q", prev, i, k)
		}
		seen[k] = i
	}
}

// Keyword keys are case-insensitive (the same search twice shouldn't stack
// twice).
func TestKeywordKeyCaseInsensitive(t *testing.T) {
	if (Keyword{Text: "Walnut"}).Key() != (Keyword{Text: "walnut"}).Key() {
		t.Error("keyword keys should fold case")
	}
}

func TestRangeKeyIncludesBounds(t *testing.T) {
	if between(pServings, 1, 5).Key() == between(pServings, 1, 6).Key() {
		t.Error("different bounds must have different keys")
	}
	if AtLeast(pServings, 1).Key() == AtMost(pServings, 1).Key() {
		t.Error("one-sided ranges must be distinguishable")
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

	if got := NewQuery().Key(); got != "query:{}" {
		t.Errorf("empty query key %q, want %q", got, "query:{}")
	}
}
