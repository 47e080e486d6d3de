package simuser

import (
	"testing"

	"magnet/internal/datasets/recipes"
	"magnet/internal/rdf"
)

// The study's headline shape (§6.3.1): the complete system beats the
// baseline on both tasks — "users found on average 2.70 recipes with the
// complete system and 1.71 recipes with the baseline system; and for the
// second task ... 5.80 ... and 4.87".
func TestStudyShapeMatchesPaper(t *testing.T) {
	r := Run(Config{Users: 18, Recipes: 2000})

	if r.Task1Complete.Mean <= r.Task1Baseline.Mean {
		t.Errorf("task 1: complete %.2f should beat baseline %.2f",
			r.Task1Complete.Mean, r.Task1Baseline.Mean)
	}
	if r.Task2Complete.Mean <= r.Task2Baseline.Mean {
		t.Errorf("task 2: complete %.2f should beat baseline %.2f",
			r.Task2Complete.Mean, r.Task2Baseline.Mean)
	}
	// Factors in the paper's ballpark: ~1.6× on task 1, ~1.2× on task 2.
	f1 := r.Task1Complete.Mean / r.Task1Baseline.Mean
	if f1 < 1.15 || f1 > 2.2 {
		t.Errorf("task 1 factor = %.2f, expected roughly the paper's 1.58", f1)
	}
	f2 := r.Task2Complete.Mean / r.Task2Baseline.Mean
	if f2 < 1.02 || f2 > 1.6 {
		t.Errorf("task 2 factor = %.2f, expected roughly the paper's 1.19", f2)
	}
	// Absolute means within a loose band of the paper's values.
	within := func(got, want, tol float64) bool { return got > want-tol && got < want+tol }
	if !within(r.Task1Complete.Mean, 2.70, 1.0) || !within(r.Task1Baseline.Mean, 1.71, 1.0) {
		t.Errorf("task 1 means %.2f/%.2f drifted from paper 2.70/1.71",
			r.Task1Complete.Mean, r.Task1Baseline.Mean)
	}
	if !within(r.Task2Complete.Mean, 5.80, 1.5) || !within(r.Task2Baseline.Mean, 4.87, 1.5) {
		t.Errorf("task 2 means %.2f/%.2f drifted from paper 5.80/4.87",
			r.Task2Complete.Mean, r.Task2Baseline.Mean)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(Config{Users: 6, Recipes: 800, Seed: 11})
	b := Run(Config{Users: 6, Recipes: 800, Seed: 11})
	for i := range a.Rows() {
		ra, rb := a.Rows()[i], b.Rows()[i]
		if ra.Mean != rb.Mean {
			t.Errorf("%s/%s nondeterministic: %.2f vs %.2f", ra.Task, ra.System, ra.Mean, rb.Mean)
		}
	}
}

func TestRowsOrder(t *testing.T) {
	r := Run(Config{Users: 2, Recipes: 500})
	rows := r.Rows()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	wantOrder := []struct {
		task   string
		system SystemKind
	}{
		{"task1", Complete}, {"task1", Baseline}, {"task2", Complete}, {"task2", Baseline},
	}
	for i, w := range wantOrder {
		if rows[i].Task != w.task || rows[i].System != w.system {
			t.Errorf("row %d = %s/%s", i, rows[i].Task, rows[i].System)
		}
		if len(rows[i].PerUser) != 2 {
			t.Errorf("row %d has %d users", i, len(rows[i].PerUser))
		}
	}
}

func TestStudyEnvFixtures(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 1000, Seed: 1})
	g := gb.Freeze()
	e := &studyEnv{graph: g}
	e.prepare()
	if e.target == "" {
		t.Fatal("no target recipe")
	}
	if !g.Has(e.target, recipes.PropIngredient, recipes.Ingredient("Walnuts")) {
		t.Error("target must contain walnuts")
	}
	if e.nutFree(e.target) {
		t.Error("target cannot be nut-free")
	}
	if e.relatedToTarget(e.target) {
		t.Error("target is not related to itself")
	}
	// A recipe sharing two target ingredients is related.
	probe := rdf.IRI(recipes.NS + "recipe/probe")
	gb.Add(probe, rdf.Type, recipes.ClassRecipe)
	n := 0
	for ing := range e.targetIngred {
		if ing == recipes.Ingredient("Walnuts") {
			continue
		}
		gb.Add(probe, recipes.PropIngredient, ing)
		if n++; n == 2 {
			break
		}
	}
	e.graph = gb.Freeze()
	if !e.relatedToTarget(probe) {
		t.Error("probe sharing two ingredients should be related")
	}
	if !e.nutFree(probe) {
		t.Error("probe should be nut-free")
	}
}
