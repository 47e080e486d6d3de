package facets

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"magnet/internal/rdf"
	"magnet/internal/schema"
)

// Property: for random graphs, every facet's invariants hold — coverage
// never exceeds the collection size, value counts never exceed coverage...
// (multi-valued attributes can push a value's count above coverage only if
// one item repeats a value, which the graph's set semantics forbids), and
// Distinct is at least the number of displayed values.
func TestQuickSummarizeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gb := rdf.NewBuilder()
		var items []rdf.IRI
		n := rng.Intn(20) + 2
		for i := 0; i < n; i++ {
			it := rdf.IRI(fmt.Sprintf("%si%d", ex, i))
			items = append(items, it)
			for j := 0; j < rng.Intn(4); j++ {
				p := rdf.IRI(fmt.Sprintf("%sp%d", ex, rng.Intn(3)))
				if rng.Intn(2) == 0 {
					gb.Add(it, p, rdf.IRI(fmt.Sprintf("%sv%d", ex, rng.Intn(5))))
				} else {
					gb.Add(it, p, rdf.NewString(fmt.Sprintf("s%d", rng.Intn(5))))
				}
			}
		}
		g := gb.Freeze()
		sch := schema.NewStore(g)
		for _, f := range summarizeItems(g, sch, items, Options{IncludeUnshared: true}) {
			if f.Coverage > len(items) || f.Coverage == 0 {
				return false
			}
			if f.Distinct < len(f.Values) {
				return false
			}
			for _, v := range f.Values {
				if v.Count < 1 || v.Count > f.Coverage {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: MaxValues truncation never changes Distinct or ordering of the
// retained prefix.
func TestQuickSummarizeTruncationStable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gb := rdf.NewBuilder()
		var items []rdf.IRI
		for i := 0; i < 12; i++ {
			it := rdf.IRI(fmt.Sprintf("%si%d", ex, i))
			items = append(items, it)
			gb.Add(it, rdf.IRI(ex+"p"), rdf.IRI(fmt.Sprintf("%sv%d", ex, rng.Intn(6))))
		}
		g := gb.Freeze()
		sch := schema.NewStore(g)
		full := summarizeItems(g, sch, items, Options{IncludeUnshared: true})
		trunc := summarizeItems(g, sch, items, Options{IncludeUnshared: true, MaxValues: 2})
		if len(full) != len(trunc) {
			return false
		}
		for i := range full {
			if full[i].Distinct != trunc[i].Distinct {
				return false
			}
			for j := range trunc[i].Values {
				if trunc[i].Values[j] != full[i].Values[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
