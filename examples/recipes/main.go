// Recipes example: the paper's §3 walkthrough on the recipe corpus —
// navigate to Greek recipes with parsley (Figure 1), inspect the facet
// overview (Figure 2), build the §3.3 compound "dairy or vegetables"
// refinement, and run the walnut-allergy flow from the user study. Run:
//
//	go run ./examples/recipes
package main

import (
	"fmt"
	"os"

	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/query"
	"magnet/internal/rdf"
	"magnet/internal/render"
)

// apply performs a navigation action, aborting the run on failure: every
// step below depends on the resulting view.
func apply(s *core.Session, a blackboard.Action) {
	if err := s.Apply(a); err != nil {
		fmt.Fprintf(os.Stderr, "apply: %v\n", err)
		os.Exit(1)
	}
}

func main() {
	g := recipes.Build(recipes.Config{Recipes: 2000})
	m := core.Open(g, core.Options{})
	s := m.NewSession()

	// Figure 1: type=Recipe ∧ cuisine=Greek ∧ ingredient=Parsley.
	apply(s, blackboard.ReplaceQuery{Query: query.NewQuery(
		query.TypeIs(recipes.ClassRecipe),
		query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Greek")},
		query.Property{Prop: recipes.PropIngredient, Value: recipes.Ingredient("Parsley")},
	)})
	fmt.Println("=== Figure 1 walkthrough: Greek recipes with parsley ===")
	render.Collection(os.Stdout, m.Graph(), s.Items(), 6)
	fmt.Println()
	render.Pane(os.Stdout, s.Pane(), false)

	// Figure 2: the large-collection overview.
	apply(s, blackboard.ReplaceQuery{Query: query.NewQuery(query.TypeIs(recipes.ClassRecipe))})
	fmt.Println("\n=== Figure 2: facet overview of all recipes ===")
	render.Overview(os.Stdout, s.Overview(4), len(s.Items()))

	// §3.3 power users: "only those items ... that either have a dairy
	// product or a vegetable in them" — a compound OR refinement over the
	// composed ingredient·group axis.
	dairyOrVeg := query.Or{Ps: []query.Predicate{
		query.PathProperty{Path: []rdf.IRI{recipes.PropIngredient, recipes.PropGroup}, Value: recipes.Group("Dairy")},
		query.PathProperty{Path: []rdf.IRI{recipes.PropIngredient, recipes.PropGroup}, Value: recipes.Group("Vegetables")},
	}}
	before := len(s.Items())
	s.Refine(dairyOrVeg, blackboard.Filter)
	fmt.Printf("\n=== §3.3 compound refinement: dairy OR vegetables: %d → %d recipes ===\n",
		before, len(s.Items()))

	// The study's walnut flow: a walnut recipe, its similar recipes, nuts
	// excluded.
	walnutRecipes := m.Graph().Subjects(recipes.PropIngredient, recipes.Ingredient("Walnuts"))
	target := walnutRecipes[0]
	fmt.Printf("\n=== Walnut-allergy flow from %q ===\n", m.Label(target))
	s.OpenItem(target)
	for _, sg := range s.Board().Suggestions() {
		if sg.Group == "Similar by Content" {
			apply(s, sg.Action)
			break
		}
	}
	fmt.Printf("similar items: %d\n", len(s.Items()))
	s.Refine(query.PathProperty{
		Path:  []rdf.IRI{recipes.PropIngredient, recipes.PropGroup},
		Value: recipes.Group("Nuts"),
	}, blackboard.Exclude)
	fmt.Printf("after excluding the Nuts group: %d\n", len(s.Items()))
	render.Collection(os.Stdout, m.Graph(), s.Items(), 5)
}
