package facets

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"magnet/internal/datasets/recipes"
	"magnet/internal/rdf"
	"magnet/internal/schema"
)

// oracleHistogram is NumericHistogram as it read values before the
// value-major reader: item by item, each item's first parseable numeric
// Objects value by key. Kept as the test oracle for the new reader.
func oracleHistogram(g *rdf.Graph, items []rdf.IRI, prop rdf.IRI, nbuckets int) (Histogram, bool) {
	if nbuckets <= 0 {
		nbuckets = 10
	}
	var vals []float64
	for _, it := range items {
		if f, ok := oracleValue(g, it, prop); ok {
			vals = append(vals, f)
		}
	}
	if len(vals) < 2 {
		return Histogram{Prop: prop}, false
	}
	h := Histogram{Prop: prop, Min: vals[0], Max: vals[0], Buckets: make([]int, nbuckets), Count: len(vals)}
	for _, v := range vals {
		if v < h.Min {
			h.Min = v
		}
		if v > h.Max {
			h.Max = v
		}
	}
	if h.Max == h.Min {
		h.Buckets[0] = len(vals)
		return h, true
	}
	for _, v := range vals {
		b := int(float64(nbuckets) * (v - h.Min) / (h.Max - h.Min))
		if b == nbuckets {
			b--
		}
		h.Buckets[b]++
	}
	return h, true
}

// oracleOutliers is Outliers as it read values before the value-major
// reader, summing in collection order.
func oracleOutliers(g *rdf.Graph, items []rdf.IRI, prop rdf.IRI, k float64) []rdf.IRI {
	var its []rdf.IRI
	var vals []float64
	var sum float64
	for _, it := range items {
		if f, ok := oracleValue(g, it, prop); ok {
			its = append(its, it)
			vals = append(vals, f)
			sum += f
		}
	}
	if len(vals) < 3 {
		return nil
	}
	mean := sum / float64(len(vals))
	var varsum float64
	for _, v := range vals {
		varsum += (v - mean) * (v - mean)
	}
	variance := varsum / float64(len(vals))
	if variance == 0 {
		return nil
	}
	std := math.Sqrt(variance)
	var out []rdf.IRI
	for i, v := range vals {
		if math.Abs(v-mean) > k*std {
			out = append(out, its[i])
		}
	}
	return out
}

// outliersOf runs Outliers over the items' ID set and rehydrates the
// result, nil when empty, to compare with oracleOutliers over byID(items).
func outliersOf(g *rdf.Graph, sch *schema.Store, items []rdf.IRI, prop rdf.IRI, k float64) []rdf.IRI {
	out := Outliers(sch, g.SubjectIDsOf(items), prop, k)
	if out.IsEmpty() {
		return nil
	}
	return g.SubjectsFromIDs(out.Slice())
}

// byID returns the graph's subjects among items in ascending ID order,
// the order Outliers reads a collection in.
func byID(g *rdf.Graph, items []rdf.IRI) []rdf.IRI {
	return g.SubjectsFromIDs(g.SubjectIDsOf(items).Slice())
}

// oracleValue is an item's first parseable numeric value of prop, by key.
func oracleValue(g *rdf.Graph, it, prop rdf.IRI) (float64, bool) {
	for _, o := range g.Objects(it, prop) {
		if lit, ok := o.(rdf.Literal); ok {
			if f, ok := lit.Float(); ok {
				return f, true
			}
		}
	}
	return 0, false
}

// TestNumericFirstValueByKeyWins: an item with two numeric values
// contributes only its first by key. "10" sorts before "9", so the item
// counts as 10 and the histogram's maximum is 10, not 9.
func TestNumericFirstValueByKeyWins(t *testing.T) {
	gb := rdf.NewBuilder()
	p := rdf.IRI(ex + "n")
	a, b, c := rdf.IRI(ex+"a"), rdf.IRI(ex+"b"), rdf.IRI(ex+"c")
	gb.Add(a, p, rdf.NewInteger(9))
	gb.Add(a, p, rdf.NewInteger(10))
	gb.Add(b, p, rdf.NewInteger(1))
	gb.Add(c, p, rdf.NewInteger(2))
	items := []rdf.IRI{a, b, c}
	g := gb.Freeze()
	sch := schema.NewStore(g)
	h, ok := NumericHistogram(sch, g.SubjectIDsOf(items), p, 3)
	if !ok || h.Count != 3 || h.Min != 1 || h.Max != 10 {
		t.Fatalf("histogram = %+v, %v; want 3 items over [1, 10]", h, ok)
	}
	if want, _ := oracleHistogram(g, items, p, 3); !reflect.DeepEqual(h, want) {
		t.Errorf("histogram = %+v, oracle %+v", h, want)
	}
	// Outliers reads the same first value.
	if got, want := outliersOf(g, sch, items, p, 1), oracleOutliers(g, byID(g, items), p, 1); !reflect.DeepEqual(got, want) || len(got) != 1 || got[0] != a {
		t.Errorf("Outliers = %v, oracle %v", got, want)
	}
}

// TestNumericMatchesOracle compares the value-major histogram and
// outliers with the item-by-item oracle on seeded random recipe
// collections. Some recipes carry a second numeric value, a string value
// or an IRI value on the same property, so the first-value rule and the
// skipping of non-numeric values are exercised; collections are shuffled
// and the oracle reads them in ID order, as Outliers does.
func TestNumericMatchesOracle(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 400, Seed: 3})
	all := gb.Freeze().SubjectsOfType(recipes.ClassRecipe)
	rng := rand.New(rand.NewSource(7))
	for i, r := range all {
		switch i % 9 {
		case 0:
			gb.Add(r, recipes.PropPrepTime, rdf.NewInteger(int64(rng.Intn(400))))
		case 1:
			gb.Add(r, recipes.PropServings, rdf.NewInteger(int64(rng.Intn(40))))
		case 2:
			gb.Add(r, recipes.PropPrepTime, rdf.NewString("about an hour"))
		case 3:
			gb.Add(r, recipes.PropServings, rdf.IRI(ex+"many"))
		}
	}
	g := gb.Freeze()
	sch := schema.NewStore(g)
	absent := rdf.IRI(ex + "not-in-graph")
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(len(all))
		if trial%10 == 0 {
			n = 1 + rng.Intn(4) // tiny collections: below the 2- and 3-item floors
		}
		items := make([]rdf.IRI, 0, n+1)
		for _, j := range rng.Perm(len(all))[:n] {
			items = append(items, all[j])
		}
		if trial%7 == 0 {
			items = append(items, absent)
		}
		for _, p := range []rdf.IRI{recipes.PropPrepTime, recipes.PropServings, recipes.PropCuisine} {
			nb := 1 + rng.Intn(24)
			got, gotOK := NumericHistogram(sch, g.SubjectIDsOf(items), p, nb)
			want, wantOK := oracleHistogram(g, items, p, nb)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s: histogram = %+v, %v; oracle %+v, %v", trial, p, got, gotOK, want, wantOK)
			}
			k := []float64{0.5, 1, 1.5, 2}[rng.Intn(4)]
			if got, want := outliersOf(g, sch, items, p, k), oracleOutliers(g, byID(g, items), p, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s k=%v: Outliers = %v, oracle %v", trial, p, k, got, want)
			}
		}
	}
}

// TestSummarizeCountsMatchOracle compares every facet's value counts,
// coverage and distinct-value count with an item-by-item count over
// Objects, on seeded random recipe collections from two items (where most
// postings are 16 or more times the collection and are galloped) to the
// whole corpus (where every posting is counted by bit test).
func TestSummarizeCountsMatchOracle(t *testing.T) {
	g := recipes.Build(recipes.Config{Recipes: 300, Seed: 5}).Freeze()
	sch := schema.NewStore(g)
	all := g.SubjectsOfType(recipes.ClassRecipe)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := []int{2, 3, 5, 17, 60, len(all)}[trial%6]
		items := make([]rdf.IRI, 0, n)
		for _, j := range rng.Perm(len(all))[:n] {
			items = append(items, all[j])
		}
		got := map[rdf.IRI]Facet{}
		for _, f := range SummarizeContext(context.Background(), g, sch, g.SubjectIDsOf(items), Options{IncludeUnshared: true}) {
			got[f.Prop] = f
		}
		for _, p := range g.Predicates() {
			if sch.Hidden(p) {
				continue
			}
			counts := map[string]int{}
			coverage := 0
			for _, it := range items {
				objs := g.Objects(it, p)
				if len(objs) > 0 {
					coverage++
				}
				for _, o := range objs {
					counts[o.Key()]++
				}
			}
			f, ok := got[p]
			if coverage == 0 {
				if ok {
					t.Fatalf("trial %d %s: facet for an uncovered property", trial, p)
				}
				continue
			}
			if !ok || f.Coverage != coverage || f.Distinct != len(counts) || len(f.Values) != len(counts) {
				t.Fatalf("trial %d %s (n=%d): facet %+v, want coverage %d and %d distinct", trial, p, n, f, coverage, len(counts))
			}
			for _, v := range f.Values {
				if v.Count != counts[v.Term.Key()] {
					t.Fatalf("trial %d %s (n=%d) %s: count %d, want %d", trial, p, n, v.Term.Key(), v.Count, counts[v.Term.Key()])
				}
			}
		}
	}
}
