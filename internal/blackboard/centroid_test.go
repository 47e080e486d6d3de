package blackboard_test

import (
	"reflect"
	"testing"

	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/query"
)

// TestSharedCentroidDeterminism runs the full analyst set, whose two
// centroid readers share one centroid per run, on a width-2 pool and a
// width-1 pool: the boards must be identical on every view — all items
// (more than one centroid chunk), a keyword result, a refinement and a
// two-item fixed collection. The centroid still sums its chunks on the
// pool, so under -race (make race-par) the width-2 run also checks the
// chunks' publication to the analysts that read the sum.
func TestSharedCentroidDeterminism(t *testing.T) {
	open := func(width int) *core.Session {
		m := core.Open(recipes.Build(recipes.Config{Recipes: 300, Seed: 1}), core.Options{Parallelism: width})
		t.Cleanup(m.Close)
		return m.NewSession()
	}
	par, serial := open(2), open(1)
	steps := []struct {
		name string
		step func(*core.Session)
	}{
		{"all items", func(*core.Session) {}},
		{"walnut", func(s *core.Session) { s.Search("walnut") }},
		{"Mexican", func(s *core.Session) {
			s.GoHome()
			s.Refine(query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Mexican")}, blackboard.Filter)
		}},
		{"two-item fixed view", func(s *core.Session) {
			if err := s.Apply(blackboard.GoToCollection{Title: "two", IDs: s.Current().Members()[:2]}); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, st := range steps {
		st.step(par)
		st.step(serial)
		if n := serial.Current().Len(); n < 2 {
			t.Fatalf("%s: %d members, want a collection", st.name, n)
		}
		want := serial.Board().Suggestions()
		for round := 0; round < 3; round++ {
			if got := par.Board().Suggestions(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s round %d: width-2 board differs from width-1:\n got %+v\nwant %+v", st.name, round, got, want)
			}
		}
	}
}
