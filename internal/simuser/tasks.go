package simuser

import (
	"strings"

	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/query"
	"magnet/internal/rdf"
)

// apply performs a board action for a simulated user, deliberately
// discarding failures: a user whose click does nothing simply carries on,
// and every action applied here came off the session's own board.
func apply(s *core.Session, a blackboard.Action) { _ = s.Apply(a) }

// studyEnv holds the corpus-level fixtures of the two directed tasks.
type studyEnv struct {
	graph *rdf.Graph
	// target is task 1's "aunt's recipe": a walnut recipe.
	target       rdf.IRI
	targetCuis   rdf.Term
	targetIngred map[rdf.IRI]bool
}

// targetConnectivity returns the desired number of related nut-free
// recipes around the aunt's recipe, scaled to corpus size: enough that the
// task is solvable (the paper's users found up to 3), few enough that blind
// scanning does not solve it.
func targetConnectivity(corpusRecipes int) int {
	c := corpusRecipes / 50
	if c < 8 {
		c = 8
	}
	return c
}

// prepare picks the aunt's recipe: a walnut recipe with a modest
// ingredient list (sharing two of five ingredients is a real signal, two of
// ten is not) and moderate connectivity — among candidates we pick the one
// whose related nut-free neighbourhood is closest to targetConnectivity.
// Deterministic across runs.
func (e *studyEnv) prepare() {
	walnut := recipes.Ingredient("Walnuts")
	// Subjects returns lexically sorted IRIs already.
	candidates := e.graph.Subjects(recipes.PropIngredient, walnut)

	want := targetConnectivity(len(e.graph.SubjectsOfType(recipes.ClassRecipe)))
	best, bestDist := rdf.IRI(""), 1<<30
	for _, r := range candidates {
		if n := e.graph.ObjectCount(r, recipes.PropIngredient); n < 4 || n > 6 {
			continue
		}
		dist := e.relatedNutFreeCount(r) - want
		if dist < 0 {
			dist = -dist
		}
		if dist < bestDist {
			best, bestDist = r, dist
		}
	}
	if best == "" && len(candidates) > 0 {
		best = candidates[0]
	}
	e.target = best
	if c, ok := e.graph.Object(e.target, recipes.PropCuisine); ok {
		e.targetCuis = c
	}
	e.targetIngred = make(map[rdf.IRI]bool)
	for _, ing := range e.graph.Objects(e.target, recipes.PropIngredient) {
		e.targetIngred[ing.(rdf.IRI)] = true
	}
}

// relatedNutFreeCount counts corpus recipes sharing ≥2 of r's ingredients
// that are nut-free.
func (e *studyEnv) relatedNutFreeCount(r rdf.IRI) int {
	shared := make(map[rdf.IRI]int)
	for _, ing := range e.graph.Objects(r, recipes.PropIngredient) {
		for _, other := range e.graph.Subjects(recipes.PropIngredient, ing.(rdf.IRI)) {
			if other != r {
				shared[other]++
			}
		}
	}
	n := 0
	for other, k := range shared {
		if k >= 2 && e.nutFree(other) {
			n++
		}
	}
	return n
}

// nutFree reports whether a recipe has no ingredient in the Nuts group.
func (e *studyEnv) nutFree(r rdf.IRI) bool {
	nuts := recipes.Group("Nuts")
	for _, ing := range e.graph.Objects(r, recipes.PropIngredient) {
		if i, ok := ing.(rdf.IRI); ok && e.graph.Has(i, recipes.PropGroup, nuts) {
			return false
		}
	}
	return true
}

// relatedToTarget reports whether r is a recipe "the uncle and aunt may
// like": genuinely similar to the aunt's recipe, i.e. sharing at least two
// of its ingredients. (Merely sharing the cuisine is not enough — the task
// asks for recipes related to *that* recipe.)
func (e *studyEnv) relatedToTarget(r rdf.IRI) bool {
	if r == e.target {
		return false
	}
	shared := 0
	for _, ing := range e.graph.Objects(r, recipes.PropIngredient) {
		if e.targetIngred[ing.(rdf.IRI)] {
			shared++
		}
	}
	return shared >= 2
}

// isRecipe filters vocabulary resources out of scanned collections.
func (e *studyEnv) isRecipe(r rdf.IRI) bool {
	return e.graph.Has(r, rdf.Type, recipes.ClassRecipe)
}

// Recognition probabilities for scanTask1: verifying a system-proposed
// similar item is easy (recognition), while spotting a related recipe
// inside a large query listing demands recalling the aunt's recipe's
// ingredients (recall) and often fails.
const (
	recogSimilar = 0.85
	recogListing = 0.55
)

// scanTask1 models the user examining a collection item by item: each
// examination costs one unit of attention; valid finds (related and
// nut-free — the user can read the ingredient list, so nut recipes are
// skipped, not collected) accumulate until the task's 3-recipe goal,
// subject to the recognition probability recog.
func (e *studyEnv) scanTask1(u *user, items []rdf.IRI, found map[rdf.IRI]bool, budget int, recog float64) {
	for _, it := range items {
		if len(found) >= 3 || budget == 0 {
			return
		}
		if !e.isRecipe(it) {
			continue
		}
		budget--
		if e.relatedToTarget(it) && e.nutFree(it) && u.rng.Float64() < recog {
			found[it] = true
		}
	}
}

// nutExclusion is the constraint a successful negation produces.
func nutExclusion() query.Predicate {
	return query.PathProperty{
		Path:  []rdf.IRI{recipes.PropIngredient, recipes.PropGroup},
		Value: recipes.Group("Nuts"),
	}
}

// task1 runs the walnut-recipe task and returns the number of valid related
// recipes the user ends with.
func (e *studyEnv) task1(u *user, s *core.Session, complete bool) int {
	found := make(map[rdf.IRI]bool)

	// Everyone starts by locating the aunt's recipe via keyword search.
	s.Search("walnut")
	s.OpenItem(e.target)

	if complete && u.similarityFirst {
		// Similarity path (complete system only): "find recipes similar to
		// a target recipe but that did not have nuts in them".
		if sg, ok := findGroupSuggestion(s, "Similar by Content"); ok {
			apply(s, sg.Action)
			// Excluding nuts needs the context-menu mode switch; most users
			// manage it here because the suggestion is in front of them.
			if u.rng.Float64() < 0.75 {
				s.Refine(nutExclusion(), blackboard.Exclude)
			}
			e.scanTask1(u, s.Items(), found, s.Current().Len(), recogSimilar)
			return len(found)
		}
	}

	// Constraint-stacking path (the capture error the paper describes):
	// the user adds target ingredients *including walnuts* as constraints.
	q := query.NewQuery(query.TypeIs(recipes.ClassRecipe))
	if e.targetCuis != nil {
		q = q.With(query.Property{Prop: recipes.PropCuisine, Value: e.targetCuis})
	}
	if course, ok := e.graph.Object(e.target, recipes.PropCourse); ok {
		// Users remember the dish kind and refine by it (basic faceting,
		// available on both systems).
		q = q.With(query.Property{Prop: recipes.PropCourse, Value: course})
	}
	q = q.With(query.Property{Prop: recipes.PropIngredient, Value: recipes.Ingredient("Walnuts")})
	apply(s, blackboard.ReplaceQuery{Query: q})
	// "...then issuing a refinement to exclude items with nuts, producing
	// the empty result set."
	s.Refine(nutExclusion(), blackboard.Exclude)

	if s.Current().Len() == 0 {
		// Stuck. Recovery differs by system.
		recovered := false
		if complete {
			// The contrary advisor suggests negating the walnut constraint.
			if sg, ok := findContrary(s, "Walnut"); ok && u.rng.Float64() < 0.85 {
				apply(s, sg.Action)
				// Clean up the now-redundant empty-set exclusion by
				// removing the stale positive constraint if still present.
				recovered = s.Current().Len() > 0
			}
		}
		if !recovered && u.rng.Float64() < u.negationSkill {
			// Manual recovery: drop the walnut constraint, keep the
			// exclusion ("most users on both systems had a hard time
			// getting negation right" — low probability).
			fixed := query.NewQuery(query.TypeIs(recipes.ClassRecipe))
			if e.targetCuis != nil {
				fixed = fixed.With(query.Property{Prop: recipes.PropCuisine, Value: e.targetCuis})
			}
			if course, ok := e.graph.Object(e.target, recipes.PropCourse); ok {
				fixed = fixed.With(query.Property{Prop: recipes.PropCourse, Value: course})
			}
			fixed = fixed.With(query.Not{P: nutExclusion()})
			apply(s, blackboard.ReplaceQuery{Query: fixed})
			recovered = s.Current().Len() > 0
		}
		if !recovered {
			// Flail: fall back to the cuisine collection alone and scan.
			fallback := query.NewQuery(query.TypeIs(recipes.ClassRecipe))
			if e.targetCuis != nil {
				fallback = fallback.With(query.Property{Prop: recipes.PropCuisine, Value: e.targetCuis})
			}
			if course, ok := e.graph.Object(e.target, recipes.PropCourse); ok {
				fallback = fallback.With(query.Property{Prop: recipes.PropCourse, Value: course})
			}
			apply(s, blackboard.ReplaceQuery{Query: fallback})
		}
	}
	e.scanTask1(u, s.Items(), found, u.patience*2, recogListing)

	// Complete-system users who are still short often discover the Similar
	// Items advisor on their second attempt ("users seemed to not have
	// problems using the extra features ... after they used it once or
	// twice").
	if complete && len(found) < 2 && u.rng.Float64() < 0.6 {
		s.OpenItem(e.target)
		if sg, ok := findGroupSuggestion(s, "Similar by Content"); ok {
			apply(s, sg.Action)
			if u.rng.Float64() < 0.75 {
				s.Refine(nutExclusion(), blackboard.Exclude)
			}
			e.scanTask1(u, s.Items(), found, s.Current().Len(), recogSimilar)
		}
	}
	return len(found)
}

// menuCourses are the task-2 requirements: "some soups or appetizers, as
// well as salads and desserts on top of the meal".
var menuCourses = [][]rdf.IRI{
	{recipes.Course("Soup"), recipes.Course("Appetizer")},
	{recipes.Course("Salad")},
	{recipes.Course("Dessert")},
	{recipes.Course("Main")},
}

// task2 runs the Mexican-menu task and returns the number of valid menu
// recipes collected.
func (e *studyEnv) task2(u *user, s *core.Session, complete bool) int {
	favorites := e.pickFavorites(u)
	mexican := recipes.Cuisine("Mexican")

	apply(s, blackboard.ReplaceQuery{Query: query.NewQuery(
		query.TypeIs(recipes.ClassRecipe),
		query.Property{Prop: recipes.PropCuisine, Value: mexican},
	)})

	collected := make(map[rdf.IRI]bool)
	for _, courseAlts := range menuCourses {
		course := courseAlts[u.rng.Intn(len(courseAlts))]
		s.Refine(query.Property{Prop: recipes.PropCourse, Value: course}, blackboard.Filter)

		var firstPick rdf.IRI
		perCourse := 0
		budget := u.patience
		for _, it := range s.Items() {
			if perCourse >= 2 || budget == 0 {
				break
			}
			if !e.isRecipe(it) || collected[it] {
				continue
			}
			budget--
			// Users pick dishes with a favourite ingredient readily, and
			// other plausible dishes occasionally.
			p := 0.25
			if e.hasAny(it, favorites) {
				p = 0.5
			}
			if u.rng.Float64() < p {
				collected[it] = true
				perCourse++
				if firstPick == "" {
					firstPick = it
				}
			}
		}

		// Complete-system bonus move the paper observed: pick a dish, ask
		// for similar recipes, keep those that still fit the menu slot.
		if complete && firstPick != "" && u.rng.Float64() < 0.35 {
			s.OpenItem(firstPick)
			if sg, ok := findGroupSuggestion(s, "Similar by Content"); ok {
				apply(s, sg.Action)
				for _, it := range s.Items() {
					if collected[it] || !e.isRecipe(it) {
						continue
					}
					if e.graph.Has(it, recipes.PropCuisine, mexican) &&
						e.graph.Has(it, recipes.PropCourse, course) {
						collected[it] = true
						break // one extra per course at most
					}
				}
			}
		}

		// Back to the Mexican collection for the next course.
		apply(s, blackboard.ReplaceQuery{Query: query.NewQuery(
			query.TypeIs(recipes.ClassRecipe),
			query.Property{Prop: recipes.PropCuisine, Value: mexican},
		)})
	}
	return len(collected)
}

// pickFavorites draws the user's two favourite ingredients from the common
// Mexican-ish pool (the task brief: "some of your favorite ingredients that
// you mentioned earlier").
func (e *studyEnv) pickFavorites(u *user) []rdf.IRI {
	pool := []string{
		"Black Beans", "Avocados", "Cilantro", "Corn", "Tomatoes", "Limes",
		"Cheddar", "Chicken", "Garlic", "Onions",
	}
	a := u.rng.Intn(len(pool))
	b := u.rng.Intn(len(pool))
	return []rdf.IRI{recipes.Ingredient(pool[a]), recipes.Ingredient(pool[b])}
}

func (e *studyEnv) hasAny(r rdf.IRI, ingredients []rdf.IRI) bool {
	for _, ing := range ingredients {
		if e.graph.Has(r, recipes.PropIngredient, ing) {
			return true
		}
	}
	return false
}

// findGroupSuggestion returns the first pane suggestion in the given group.
func findGroupSuggestion(s *core.Session, group string) (blackboard.Suggestion, bool) {
	for _, sg := range s.Board().Suggestions() {
		if sg.Group == group {
			return sg, true
		}
	}
	return blackboard.Suggestion{}, false
}

// findContrary returns a contrary-constraints suggestion whose title
// mentions the given word.
func findContrary(s *core.Session, word string) (blackboard.Suggestion, bool) {
	for _, sg := range s.Board().Suggestions() {
		if sg.Group == "Contrary constraints" && strings.Contains(sg.Title, word) {
			return sg, true
		}
	}
	return blackboard.Suggestion{}, false
}
