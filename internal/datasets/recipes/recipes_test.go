package recipes

import (
	"strings"
	"testing"

	"magnet/internal/rdf"
	"magnet/internal/schema"
)

func smallCorpus(t *testing.T) *rdf.Graph {
	t.Helper()
	return Build(Config{Recipes: 300, Seed: 7}).Freeze()
}

func TestIngredientVocabularySize(t *testing.T) {
	g := smallCorpus(t)
	ings := g.SubjectsOfType(ClassIngredient)
	if len(ings) != TotalIngredients {
		t.Errorf("ingredients = %d, want %d", len(ings), TotalIngredients)
	}
	// Every ingredient belongs to exactly one group with a label.
	for _, ing := range ings {
		groups := g.Objects(ing, PropGroup)
		if len(groups) != 1 {
			t.Fatalf("%s has %d groups", ing, len(groups))
		}
		if !g.HasLabel(ing) {
			t.Errorf("%s unlabeled", ing)
		}
	}
}

func TestRecipeShape(t *testing.T) {
	g := smallCorpus(t)
	rs := g.SubjectsOfType(ClassRecipe)
	if len(rs) != 300 {
		t.Fatalf("recipes = %d", len(rs))
	}
	for _, r := range rs[:20] {
		if len(g.Objects(r, PropCuisine)) != 1 {
			t.Errorf("%s cuisine count wrong", r)
		}
		if len(g.Objects(r, PropCourse)) != 1 {
			t.Errorf("%s course count wrong", r)
		}
		if n := g.ObjectCount(r, PropIngredient); n < 3 || n > 10 {
			t.Errorf("%s has %d ingredients", r, n)
		}
		if _, ok := g.Object(r, PropTitle); !ok {
			t.Errorf("%s missing title", r)
		}
		if _, ok := g.Object(r, PropContent); !ok {
			t.Errorf("%s missing content", r)
		}
		sv, _ := g.Object(r, PropServings)
		if v, ok := sv.(rdf.Literal).Int(); !ok || v < 1 || v > 12 {
			t.Errorf("%s servings = %v", r, sv)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Build(Config{Recipes: 50, Seed: 3}).Freeze()
	b := Build(Config{Recipes: 50, Seed: 3}).Freeze()
	as, bs := a.AllStatements(), b.AllStatements()
	if len(as) != len(bs) {
		t.Fatalf("nondeterministic sizes: %d vs %d", len(as), len(bs))
	}
	for i := range as {
		if as[i].Key() != bs[i].Key() {
			t.Fatalf("statement %d differs: %v vs %v", i, as[i], bs[i])
		}
	}
	c := Build(Config{Recipes: 50, Seed: 4}).Freeze()
	if len(c.AllStatements()) == 0 {
		t.Fatal("empty corpus")
	}
}

func TestAnnotationsPresent(t *testing.T) {
	g := smallCorpus(t)
	sch := schema.NewStore(g)
	if sch.ValueType(PropServings) != schema.Integer {
		t.Error("servings should be annotated integer")
	}
	if !sch.Composable(PropIngredient) {
		t.Error("ingredient should be annotated composable")
	}
	if !sch.IsFacet(PropCuisine) {
		t.Error("cuisine should be a preferred facet")
	}
	if sch.Label(PropMethod) != "cooking method" {
		t.Errorf("method label = %q", sch.Label(PropMethod))
	}
}

func TestSkipAnnotations(t *testing.T) {
	g := Build(Config{Recipes: 20, Seed: 1, SkipAnnotations: true}).Freeze()
	sch := schema.NewStore(g)
	if sch.Composable(PropIngredient) || sch.IsFacet(PropCuisine) {
		t.Error("SkipAnnotations should omit annotations")
	}
}

func TestStudyTaskPreconditions(t *testing.T) {
	// The user study's directed tasks need: (1) walnut recipes with nut-free
	// similar recipes around, (2) Mexican recipes in every menu course.
	g := Build(Config{Recipes: 6444, Seed: 1}).Freeze()

	walnutRecipes := g.Subjects(PropIngredient, Ingredient("Walnuts"))
	if len(walnutRecipes) < 20 {
		t.Errorf("only %d walnut recipes", len(walnutRecipes))
	}

	mexican := g.Subjects(PropCuisine, Cuisine("Mexican"))
	if len(mexican) < 100 {
		t.Fatalf("only %d Mexican recipes", len(mexican))
	}
	courses := map[string]int{}
	for _, r := range mexican {
		if c, ok := g.Object(r, PropCourse); ok {
			courses[g.TermLabel(c)]++
		}
	}
	for _, want := range []string{"Soup", "Appetizer", "Salad", "Dessert"} {
		if courses[want] == 0 {
			t.Errorf("no Mexican %s recipes", want)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// Popular (early) ingredients appear in many more recipes than tail
	// ones — the Figure 1 "large number of the recipes have cloves, garlic,
	// olives and oil" shape.
	g := Build(Config{Recipes: 2000, Seed: 1}).Freeze()
	garlic := g.SubjectCount(PropIngredient, Ingredient("Garlic"))
	blend := g.SubjectCount(PropIngredient, Ingredient("Spice Blend 40"))
	if garlic < blend*3 {
		t.Errorf("skew too flat: garlic=%d spice-blend-40=%d", garlic, blend)
	}
}

func TestCuisineCorrelation(t *testing.T) {
	g := Build(Config{Recipes: 2000, Seed: 1}).Freeze()
	greek := g.Subjects(PropCuisine, Cuisine("Greek"))
	withFeta := 0
	for _, r := range greek {
		if g.Has(r, PropIngredient, Ingredient("Feta")) {
			withFeta++
		}
	}
	if withFeta*5 < len(greek) { // at least ~20% of Greek recipes have feta
		t.Errorf("feta in %d/%d greek recipes", withFeta, len(greek))
	}
}

func TestTitlesMentionCuisine(t *testing.T) {
	g := smallCorpus(t)
	rs := g.SubjectsOfType(ClassRecipe)
	r := rs[0]
	title, _ := g.Object(r, PropTitle)
	cuisine, _ := g.Object(r, PropCuisine)
	cname := g.TermLabel(cuisine)
	if !strings.Contains(title.(rdf.Literal).Lexical, cname) {
		t.Errorf("title %q should mention cuisine %q", title, cname)
	}
}

func TestSingular(t *testing.T) {
	tests := map[string]string{
		"Walnuts":  "Walnut",
		"Tomatoes": "Tomato",
		"Cherries": "Cherry",
		"Feta":     "Feta",
		"Molasses": "Molasses",
	}
	for in, want := range tests {
		if got := singular(in); got != want {
			t.Errorf("singular(%q) = %q, want %q", in, got, want)
		}
	}
}
