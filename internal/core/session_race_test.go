package core

import (
	"fmt"
	"sync"
	"testing"

	"magnet/internal/blackboard"
	"magnet/internal/datasets/recipes"
	"magnet/internal/query"
)

// TestConcurrentSessions stresses the serving contract below the web
// layer (internal/web's TestReplaySessions covers it through the
// handlers): one shared Magnet, many concurrent
// Sessions each doing a full navigation loop — search, refine, pane,
// overview, back, refine, remove a constraint. Sessions alternate between
// two cuisines that both keep some of the search's soups, so concurrent
// steps evaluate different queries over the same shared postings.
// Sessions are single-user, but distinct sessions must be freely
// concurrent: all shared engine state is read-only after Open. Run under
// -race this is the session-level data-race check; the correctness side
// also asserts every session sees the same results as a serial walk of
// its variant, regardless of interleaving.
func TestConcurrentSessions(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 300, Seed: 1})
	m := Open(gb, Options{})
	defer m.Close()

	const sessions = 32
	cuisines := []string{"Mexican", "Greek"}
	walk := func(variant int) (string, error) {
		s := m.NewSession()
		s.Search("soup")
		s.Refine(query.Property{
			Prop:  recipes.PropCuisine,
			Value: recipes.Cuisine(cuisines[variant%len(cuisines)]),
		}, blackboard.Filter)
		pane := s.Pane()
		overview := s.Overview(6)
		n1 := len(s.Items())
		if !s.Back() {
			return "", fmt.Errorf("Back failed")
		}
		s.Refine(query.Property{
			Prop:  recipes.PropIngredient,
			Value: recipes.Ingredient("Walnuts"),
		}, blackboard.Exclude)
		n2 := len(s.Items())
		s.RemoveConstraint(0)
		return fmt.Sprintf("sections=%d facets=%d refined=%d excluded=%d removed=%d",
			len(pane.Sections), len(overview), n1, n2, len(s.Items())), nil
	}

	wants := make([]string, len(cuisines))
	for v := range wants {
		var err error
		if wants[v], err = walk(v); err != nil {
			t.Fatal(err)
		}
	}
	if wants[0] == wants[1] {
		t.Fatalf("both cuisines walk to %s; the variants check nothing", wants[0])
	}

	results := make([]string, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = walk(i)
		}(i)
	}
	wg.Wait()

	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Errorf("session %d: %v", i, errs[i])
			continue
		}
		if want := wants[i%len(wants)]; results[i] != want {
			t.Errorf("session %d diverged under concurrency:\n got %s\nwant %s", i, results[i], want)
		}
	}
}
