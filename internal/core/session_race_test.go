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
// handlers): one shared Magnet (with its one worker pool), many concurrent
// Sessions each doing a full navigation loop — search, refine, pane,
// overview, back. Sessions are single-user, but distinct sessions must be
// freely concurrent: all shared engine state is read-only after Open. Run
// under -race this is the session-level data-race check; the correctness
// side also asserts every session sees identical results regardless of
// interleaving.
func TestConcurrentSessions(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 300, Seed: 1})
	m := Open(gb, Options{Parallelism: 4})
	defer m.Close()

	const sessions = 32
	walk := func() (string, error) {
		s := m.NewSession()
		s.Search("chicken")
		s.Refine(query.Property{
			Prop:  recipes.PropCuisine,
			Value: recipes.Cuisine("Mexican"),
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
		return fmt.Sprintf("sections=%d facets=%d refined=%d final=%d",
			len(pane.Sections), len(overview), n1, len(s.Items())), nil
	}

	want, err := walk()
	if err != nil {
		t.Fatal(err)
	}

	results := make([]string, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = walk()
		}(i)
	}
	wg.Wait()

	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Errorf("session %d: %v", i, errs[i])
			continue
		}
		if results[i] != want {
			t.Errorf("session %d diverged under concurrency:\n got %s\nwant %s", i, results[i], want)
		}
	}
}
