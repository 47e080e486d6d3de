package magnet_test

import (
	"testing"
	"time"

	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/query"
)

// TestScaleFullCorpus exercises the system at the paper's full scale: the
// complete 6,444-recipe corpus indexed and navigated end to end, with loose
// wall-clock budgets guarding against accidental quadratic regressions.
// Skipped under -short.
func TestScaleFullCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus scale test skipped in -short mode")
	}

	start := time.Now()
	gb := recipes.Build(recipes.Config{Recipes: 6444, Seed: 1})
	buildTime := time.Since(start)

	start = time.Now()
	m := core.Open(gb, core.Options{})
	openTime := time.Since(start)

	if n := len(m.Items()); n < 6444 {
		t.Fatalf("items = %d", n)
	}
	// Indexing the full corpus should stay well under a minute even on
	// modest hardware (measured ~2 s).
	if openTime > time.Minute {
		t.Errorf("core.Open took %v — likely a complexity regression", openTime)
	}

	s := m.NewSession()
	start = time.Now()
	s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(
		query.TypeIs(recipes.ClassRecipe),
		query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Greek")},
		query.Property{Prop: recipes.PropIngredient, Value: recipes.Ingredient("Parsley")},
	)})
	pane := s.Pane()
	paneTime := time.Since(start)

	if len(s.Items()) == 0 || len(pane.AllSuggestions()) == 0 {
		t.Fatal("full-corpus navigation produced nothing")
	}
	if paneTime > 10*time.Second {
		t.Errorf("query+pane took %v", paneTime)
	}
	t.Logf("build=%v open=%v query+pane=%v items=%d greekParsley=%d suggestions=%d",
		buildTime, openTime, paneTime, len(m.Items()), len(s.Items()), len(pane.AllSuggestions()))
}
