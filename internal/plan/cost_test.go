package plan

import (
	"testing"

	"magnet/internal/index"
	"magnet/internal/query"
	"magnet/internal/rdf"
	"magnet/internal/schema"
)

const ex = "http://example.org/"

var (
	pCuisine    = rdf.IRI(ex + "cuisine")
	pIngredient = rdf.IRI(ex + "ingredient")
	pServings   = rdf.IRI(ex + "servings")
	greek       = rdf.IRI(ex + "Greek")
	feta        = rdf.IRI(ex + "Feta")
)

// costFixture: 10 items, 8 greek, 2 with feta, servings 1..10, titles
// indexed so keyword df is observable.
func costFixture() *query.Engine {
	gb := rdf.NewBuilder()
	tb := index.NewTextBuilder(nil)
	var items []rdf.IRI
	for i := 0; i < 10; i++ {
		it := rdf.IRI(ex + "item" + string(rune('0'+i)))
		if i < 8 {
			gb.Add(it, pCuisine, greek)
		}
		if i < 2 {
			gb.Add(it, pIngredient, feta)
		}
		gb.Add(it, pServings, rdf.NewInteger(int64(i+1)))
		title := "dinner plate"
		if i == 0 {
			title = "walnut dinner"
		}
		gb.Add(it, rdf.DCTitle, rdf.NewString(title))
		tb.Index(string(it), "title", title)
		items = append(items, it)
	}
	g := gb.Freeze()
	tix := tb.Freeze()
	return query.NewEngine(g, schema.NewStore(g), tix, func() []rdf.IRI { return items })
}

type opaquePred struct{}

func (opaquePred) Eval(e *query.Engine) query.Set  { return e.Universe() }
func (opaquePred) Describe(l query.Labeler) string { return "opaque" }
func (opaquePred) Key() string                     { return "opaque" }

func TestEstimatorOrdersBySelectivity(t *testing.T) {
	e := costFixture()
	est := newEstimator(e)

	ing := est.estimate(query.Property{Prop: pIngredient, Value: feta})
	cui := est.estimate(query.Property{Prop: pCuisine, Value: greek})
	if ing != 2 || cui != 8 {
		t.Fatalf("posting estimates = (feta %d, greek %d), want (2, 8)", ing, cui)
	}
	if est.estimate(query.Property{Prop: pCuisine, Value: feta}) != 0 {
		t.Error("absent posting should estimate 0")
	}

	// Keyword: rarest word's df. "walnut" appears once, "dinner" everywhere.
	if n := est.estimate(query.Keyword{Text: "walnut dinner"}); n != 1 {
		t.Errorf("keyword estimate = %d, want rarest-word df 1", n)
	}

	// Not inverts against the universe; custom predicates sort past it.
	if n := est.estimate(query.Not{P: query.Property{Prop: pCuisine, Value: greek}}); n != 2 {
		t.Errorf("not estimate = %d, want 10-8", n)
	}
	if n := est.estimate(opaquePred{}); n != est.universe+1 {
		t.Errorf("opaque estimate = %d, want universe+1 = %d", n, est.universe+1)
	}

	// Range: span fraction of posting mass. servings spans 1..10; [1,5]
	// covers ~44% of the width over 10 postings.
	got := est.estimate(query.Between(pServings, 1, 5))
	if got < 1 || got > 6 {
		t.Errorf("range estimate = %d, want a span fraction of 10 (1..6)", got)
	}
	full := est.estimate(query.Between(pServings, 1, 10))
	if full != 10 {
		t.Errorf("full-span range estimate = %d, want all 10 postings", full)
	}

	// Composites: And is bounded by its cheapest branch, Or sums.
	and := query.And{Ps: []query.Predicate{
		query.Property{Prop: pCuisine, Value: greek},
		query.Property{Prop: pIngredient, Value: feta},
	}}
	if n := est.estimate(and); n != 2 {
		t.Errorf("and estimate = %d, want min branch 2", n)
	}
	or := query.Or{Ps: and.Ps}
	if n := est.estimate(or); n != 10 {
		t.Errorf("or estimate = %d, want branch sum 10", n)
	}
}
