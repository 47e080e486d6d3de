// Package recipes generates the synthetic stand-in for the Epicurious.com
// corpus used in the paper's user study (§6.3): "6,444 recipes and metadata
// extracted from the site Epicurious.com. 244 ingredients were
// semi-automatically extracted from the recipes and grouped".
//
// The real crawl is proprietary (and long gone), so this generator builds a
// deterministic corpus with the same shape: recipes typed by cuisine,
// course and cooking method; a 244-ingredient vocabulary partitioned into
// groups (nuts, dairy, vegetables, ...); Zipf-like ingredient popularity so
// facet counts and tf·idf weights behave like real data (Figure 1's "a
// large number of the recipes have cloves, garlic, olives and oil"); and
// cuisine-correlated ingredient pools so similarity navigation is
// meaningful. Both directed study tasks are supported: nut-bearing recipes
// with nut-free neighbours (task 1) and Mexican dishes across all menu
// courses (task 2).
package recipes

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"magnet/internal/rdf"
	"magnet/internal/schema"
)

// NS is the vocabulary namespace of the recipe dataset.
const NS = "http://magnet.example.org/recipes#"

// Vocabulary.
var (
	ClassRecipe     = rdf.IRI(NS + "Recipe")
	ClassIngredient = rdf.IRI(NS + "Ingredient")
	ClassGroup      = rdf.IRI(NS + "IngredientGroup")

	PropCuisine    = rdf.IRI(NS + "cuisine")
	PropCourse     = rdf.IRI(NS + "course")
	PropMethod     = rdf.IRI(NS + "cookingMethod")
	PropIngredient = rdf.IRI(NS + "ingredient")
	PropGroup      = rdf.IRI(NS + "group")
	PropServings   = rdf.IRI(NS + "servings")
	PropPrepTime   = rdf.IRI(NS + "prepMinutes")
	PropContent    = rdf.IRI(NS + "content")
	PropTitle      = rdf.DCTitle
)

// Cuisine returns the IRI of a named cuisine (e.g. "Greek").
func Cuisine(name string) rdf.IRI { return rdf.IRI(NS + "cuisine/" + name) }

// Course returns the IRI of a named course (e.g. "Dessert").
func Course(name string) rdf.IRI { return rdf.IRI(NS + "course/" + name) }

// Method returns the IRI of a named cooking method (e.g. "Bake").
func Method(name string) rdf.IRI { return rdf.IRI(NS + "method/" + name) }

// Ingredient returns the IRI of a named ingredient (e.g. "Walnuts").
func Ingredient(name string) rdf.IRI { return rdf.IRI(NS + "ingredient/" + slug(name)) }

// Group returns the IRI of a named ingredient group (e.g. "Nuts").
func Group(name string) rdf.IRI { return rdf.IRI(NS + "group/" + name) }

// Recipe returns the IRI of the i-th generated recipe.
func Recipe(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("%srecipe/%05d", NS, i)) }

func slug(name string) string {
	return strings.ReplaceAll(strings.ToLower(name), " ", "-")
}

// Cuisines is the cuisine vocabulary, most popular first.
var Cuisines = []string{
	"American", "Italian", "Mexican", "French", "Chinese", "Greek",
	"Indian", "Thai", "Japanese", "Spanish", "Moroccan", "German",
	"Vietnamese", "Turkish", "Lebanese", "Korean", "Brazilian", "Ethiopian",
}

// Courses is the course vocabulary.
var Courses = []string{
	"Appetizer", "Soup", "Salad", "Main", "Side", "Dessert", "Beverage",
}

// Methods is the cooking-method vocabulary.
var Methods = []string{
	"Bake", "Grill", "Fry", "Saute", "Roast", "Boil", "Steam", "Raw",
	"Braise", "Broil", "Poach", "Simmer",
}

// ingredientGroups maps group name → curated member names. The totals are
// padded to exactly 244 ingredients by Build (see padIngredients).
var ingredientGroups = map[string][]string{
	"Nuts": {
		"Walnuts", "Almonds", "Pecans", "Hazelnuts", "Pistachios",
		"Cashews", "Pine Nuts", "Macadamia Nuts", "Peanuts", "Chestnuts",
	},
	"Dairy": {
		"Butter", "Milk", "Cream", "Yogurt", "Feta", "Parmesan",
		"Mozzarella", "Cheddar", "Cream Cheese", "Sour Cream", "Ricotta",
		"Goat Cheese", "Buttermilk", "Creme Fraiche",
	},
	"Vegetables": {
		"Garlic", "Onions", "Tomatoes", "Carrots", "Celery", "Spinach",
		"Zucchini", "Eggplant", "Bell Peppers", "Mushrooms", "Potatoes",
		"Broccoli", "Cauliflower", "Cabbage", "Leeks", "Cucumbers",
		"Artichokes", "Asparagus", "Green Beans", "Peas", "Corn",
		"Pumpkin", "Sweet Potatoes", "Radishes", "Beets", "Kale", "Shallots",
	},
	"Fruits": {
		"Apples", "Lemons", "Limes", "Oranges", "Bananas", "Strawberries",
		"Raspberries", "Blueberries", "Peaches", "Pears", "Cherries",
		"Pineapple", "Mangoes", "Grapes", "Apricots", "Plums", "Figs",
		"Dates", "Raisins", "Cranberries", "Coconut", "Avocados",
	},
	"Herbs and Spices": {
		"Parsley", "Basil", "Cilantro", "Mint", "Oregano", "Thyme",
		"Rosemary", "Dill", "Sage", "Cloves", "Cinnamon", "Cumin",
		"Paprika", "Turmeric", "Ginger", "Nutmeg", "Cardamom", "Saffron",
		"Chili Powder", "Black Pepper", "Cayenne", "Coriander", "Bay Leaves",
		"Vanilla", "Allspice", "Fennel Seeds", "Mustard Seeds", "Star Anise",
	},
	"Grains and Pasta": {
		"Rice", "Pasta", "Bread", "Flour", "Couscous", "Quinoa", "Oats",
		"Barley", "Bulgur", "Polenta", "Noodles", "Tortillas", "Breadcrumbs",
		"Cornmeal", "Semolina",
	},
	"Meat": {
		"Chicken", "Beef", "Pork", "Lamb", "Bacon", "Sausage", "Turkey",
		"Duck", "Veal", "Ham", "Chorizo", "Prosciutto",
	},
	"Seafood": {
		"Shrimp", "Salmon", "Tuna", "Cod", "Mussels", "Clams", "Crab",
		"Lobster", "Anchovies", "Scallops", "Squid", "Halibut",
	},
	"Legumes": {
		"Black Beans", "Chickpeas", "Lentils", "Kidney Beans", "White Beans",
		"Pinto Beans", "Edamame", "Split Peas",
	},
	"Oils and Fats": {
		"Olive Oil", "Vegetable Oil", "Sesame Oil", "Coconut Oil", "Lard",
		"Shortening", "Ghee",
	},
	"Sweeteners": {
		"Sugar", "Honey", "Maple Syrup", "Brown Sugar", "Molasses",
		"Agave Nectar", "Corn Syrup",
	},
	"Condiments": {
		"Soy Sauce", "Vinegar", "Mustard", "Mayonnaise", "Ketchup",
		"Fish Sauce", "Worcestershire", "Hot Sauce", "Tahini", "Miso",
		"Capers", "Olives", "Pickles", "Salsa", "Pesto", "Hoisin Sauce",
	},
	"Baking": {
		"Eggs", "Baking Powder", "Baking Soda", "Yeast", "Chocolate",
		"Cocoa Powder", "Gelatin", "Cornstarch", "Almond Extract",
		"Chocolate Chips", "Powdered Sugar",
	},
	"Beverages": {
		"Red Wine", "White Wine", "Beer", "Coffee", "Rum", "Brandy",
		"Orange Juice", "Coconut Milk", "Stock", "Tomato Juice",
	},
}

// TotalIngredients is the paper's ingredient vocabulary size.
const TotalIngredients = 244

// cuisinePools maps cuisine → characteristic ingredient names drawn
// preferentially by that cuisine's recipes.
var cuisinePools = map[string][]string{
	"Greek":    {"Feta", "Olives", "Olive Oil", "Parsley", "Oregano", "Lemons", "Yogurt", "Spinach", "Walnuts", "Honey", "Eggplant", "Mint"},
	"Mexican":  {"Black Beans", "Tortillas", "Cilantro", "Limes", "Chili Powder", "Avocados", "Corn", "Tomatoes", "Salsa", "Pinto Beans", "Cayenne", "Chorizo"},
	"Italian":  {"Pasta", "Parmesan", "Basil", "Olive Oil", "Tomatoes", "Garlic", "Mozzarella", "Prosciutto", "Ricotta", "Pesto", "Polenta", "Red Wine"},
	"French":   {"Butter", "Cream", "Shallots", "Red Wine", "Thyme", "Brandy", "Creme Fraiche", "Leeks", "Mustard", "Eggs"},
	"Chinese":  {"Soy Sauce", "Ginger", "Sesame Oil", "Rice", "Noodles", "Garlic", "Hoisin Sauce", "Cashews", "Peanuts"},
	"Indian":   {"Cumin", "Turmeric", "Cardamom", "Ghee", "Lentils", "Chickpeas", "Yogurt", "Ginger", "Rice", "Cilantro", "Coconut Milk"},
	"Thai":     {"Fish Sauce", "Coconut Milk", "Limes", "Cilantro", "Peanuts", "Rice", "Ginger", "Hot Sauce", "Mint"},
	"Japanese": {"Soy Sauce", "Miso", "Rice", "Ginger", "Sesame Oil", "Salmon", "Tuna", "Noodles", "Edamame"},
	"Spanish":  {"Chorizo", "Saffron", "Olive Oil", "Rice", "Paprika", "Tomatoes", "Garlic", "Shrimp", "Mussels", "Almonds"},
	"American": {"Butter", "Flour", "Sugar", "Eggs", "Bacon", "Cheddar", "Corn", "Ketchup", "Chicken", "Potatoes", "Chocolate Chips", "Maple Syrup", "Pecans"},
	"Moroccan": {"Couscous", "Cinnamon", "Cumin", "Apricots", "Dates", "Almonds", "Chickpeas", "Saffron", "Mint", "Lamb"},
}

// Config controls generation.
type Config struct {
	// Recipes is the corpus size; 0 means the paper's 6,444.
	Recipes int
	// Seed makes the corpus deterministic; 0 means seed 1.
	Seed int64
	// SkipAnnotations omits the schema annotations (labels, value types,
	// facet preferences, the ingredient→group composition), reproducing an
	// unannotated import like Figure 7's.
	SkipAnnotations bool
}

// Build generates the corpus into a fresh graph builder.
func Build(cfg Config) *rdf.Builder {
	g := rdf.NewBuilder()
	BuildInto(g, cfg)
	return g
}

// BuildInto generates the corpus into g.
func BuildInto(g *rdf.Builder, cfg Config) {
	n := cfg.Recipes
	if n <= 0 {
		n = 6444
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	groups, _ := padIngredients()

	// Vocabulary triples: cuisines, courses, methods, grouped ingredients.
	for _, c := range Cuisines {
		g.Add(Cuisine(c), rdf.Type, rdf.IRI(NS+"CuisineType"))
		g.Add(Cuisine(c), rdf.Label, rdf.NewString(c))
	}
	for _, c := range Courses {
		g.Add(Course(c), rdf.Type, rdf.IRI(NS+"CourseType"))
		g.Add(Course(c), rdf.Label, rdf.NewString(c))
	}
	for _, m := range Methods {
		g.Add(Method(m), rdf.Type, rdf.IRI(NS+"MethodType"))
		g.Add(Method(m), rdf.Label, rdf.NewString(m))
	}
	for _, group := range groupOrder(groups) {
		gi := Group(group)
		g.Add(gi, rdf.Type, ClassGroup)
		g.Add(gi, rdf.Label, rdf.NewString(group))
		for _, name := range groups[group] {
			ing := Ingredient(name)
			g.Add(ing, rdf.Type, ClassIngredient)
			g.Add(ing, rdf.Label, rdf.NewString(name))
			g.Add(ing, PropGroup, gi)
		}
	}

	// Global popularity order for the Zipf draw: the pantry staples first,
	// echoing Figure 1's caption ("a large number of the recipes have
	// cloves, garlic, olives and oil as ingredients").
	staples := []string{
		"Garlic", "Olive Oil", "Cloves", "Olives", "Onions", "Butter",
		"Sugar", "Eggs", "Flour", "Black Pepper", "Lemons", "Tomatoes",
	}
	inStaples := make(map[string]bool, len(staples))
	for _, s := range staples {
		inStaples[s] = true
	}
	allIngredients := append([]string{}, staples...)
	for _, group := range groupOrder(groups) {
		for _, name := range groups[group] {
			if !inStaples[name] {
				allIngredients = append(allIngredients, name)
			}
		}
	}

	if !cfg.SkipAnnotations {
		annotate(g)
	}

	// Recipes.
	for i := 0; i < n; i++ {
		buildRecipe(g, rng, i, allIngredients)
	}
}

// annotate adds the schema annotations a "schema expert" would provide:
// labels, value types, facet preferences, and the ingredient composition
// (so "recipes whose ingredient is in group Nuts" is a model coordinate and
// a navigable constraint — the §3.3 dairy/vegetables refinement).
func annotate(g *rdf.Builder) {
	schema.SetLabel(g, PropCuisine, "cuisine")
	schema.SetLabel(g, PropCourse, "course")
	schema.SetLabel(g, PropMethod, "cooking method")
	schema.SetLabel(g, PropIngredient, "ingredient")
	schema.SetLabel(g, PropGroup, "group")
	schema.SetLabel(g, PropServings, "servings")
	schema.SetLabel(g, PropPrepTime, "preparation minutes")
	schema.SetLabel(g, PropContent, "directions")
	schema.SetValueType(g, PropServings, schema.Integer)
	schema.SetValueType(g, PropPrepTime, schema.Integer)
	schema.SetFacet(g, PropCuisine)
	schema.SetFacet(g, PropCourse)
	schema.SetFacet(g, PropMethod)
	schema.SetFacet(g, PropIngredient)
	schema.SetCompose(g, PropIngredient)
}

func buildRecipe(g *rdf.Builder, rng *rand.Rand, i int, all []string) {
	r := Recipe(i)
	cuisine := Cuisines[zipf(rng, len(Cuisines))]
	course := Courses[zipf(rng, len(Courses))]
	method := methodFor(rng, course)

	g.Add(r, rdf.Type, ClassRecipe)
	g.Add(r, PropCuisine, Cuisine(cuisine))
	g.Add(r, PropCourse, Course(course))
	g.Add(r, PropMethod, Method(method))
	g.Add(r, PropServings, rdf.NewInteger(int64(rng.Intn(12)+1)))
	g.Add(r, PropPrepTime, rdf.NewInteger(int64(rng.Intn(48)*5+5)))

	pool := cuisinePools[cuisine]
	nIng := rng.Intn(8) + 3
	chosen := make(map[string]bool, nIng)
	var names []string
	for len(names) < nIng {
		var name string
		if len(pool) > 0 && rng.Float64() < 0.55 {
			name = pool[rng.Intn(len(pool))]
		} else {
			name = all[zipf(rng, len(all))]
		}
		if chosen[name] {
			continue
		}
		chosen[name] = true
		names = append(names, name)
		g.Add(r, PropIngredient, Ingredient(name))
	}

	key := names[0]
	title := fmt.Sprintf("%s %s %s", cuisine, singular(key), dishWord(rng, course))
	g.Add(r, PropTitle, rdf.NewString(title))
	content := fmt.Sprintf("%s the %s with %s. Serve as a %s dish.",
		method, strings.ToLower(strings.Join(names[:min(3, len(names))], ", ")),
		strings.ToLower(strings.Join(names[min(3, len(names)):], ", ")),
		strings.ToLower(course))
	g.Add(r, PropContent, rdf.NewString(content))
}

// zipf draws an index in [0, n) with probability ∝ 1/(i+2), favouring early
// entries (popular cuisines, common ingredients).
func zipf(rng *rand.Rand, n int) int {
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / float64(i+2)
	}
	x := rng.Float64() * total
	for i := 0; i < n; i++ {
		x -= 1 / float64(i+2)
		if x <= 0 {
			return i
		}
	}
	return n - 1
}

func methodFor(rng *rand.Rand, course string) string {
	switch course {
	case "Dessert":
		return []string{"Bake", "Bake", "Poach", "Raw"}[rng.Intn(4)]
	case "Salad":
		return []string{"Raw", "Raw", "Grill"}[rng.Intn(3)]
	case "Soup":
		return []string{"Simmer", "Boil", "Braise"}[rng.Intn(3)]
	case "Beverage":
		return []string{"Raw", "Simmer"}[rng.Intn(2)]
	default:
		return Methods[rng.Intn(len(Methods))]
	}
}

func dishWord(rng *rand.Rand, course string) string {
	words := map[string][]string{
		"Appetizer": {"Bites", "Dip", "Fritters", "Skewers", "Tart"},
		"Soup":      {"Soup", "Chowder", "Bisque", "Broth"},
		"Salad":     {"Salad", "Slaw", "Medley"},
		"Main":      {"Stew", "Casserole", "Roast", "Curry", "Pie", "Plate"},
		"Side":      {"Gratin", "Pilaf", "Mash", "Saute"},
		"Dessert":   {"Cake", "Tart", "Cobbler", "Pudding", "Cookies", "Pie"},
		"Beverage":  {"Punch", "Smoothie", "Cooler", "Tonic"},
	}[course]
	return words[rng.Intn(len(words))]
}

func singular(name string) string {
	if strings.HasSuffix(name, "oes") {
		return name[:len(name)-2]
	}
	if strings.HasSuffix(name, "ies") {
		return name[:len(name)-3] + "y"
	}
	if strings.HasSuffix(name, "s") && !strings.HasSuffix(name, "ss") &&
		!strings.HasSuffix(name, "ses") {
		return name[:len(name)-1]
	}
	return name
}

// padIngredients returns the group → member map padded to exactly
// TotalIngredients names, plus a name → group reverse map.
func padIngredients() (map[string][]string, map[string]string) {
	groups := make(map[string][]string, len(ingredientGroups))
	total := 0
	for gname, members := range ingredientGroups {
		cp := make([]string, len(members))
		copy(cp, members)
		groups[gname] = cp
		total += len(cp)
	}
	// Pad deterministically with regional spice blends.
	for i := 1; total < TotalIngredients; i++ {
		name := fmt.Sprintf("Spice Blend %d", i)
		groups["Herbs and Spices"] = append(groups["Herbs and Spices"], name)
		total++
	}
	// Trim if curation overshot (keeps the constant authoritative).
	for total > TotalIngredients {
		hs := groups["Herbs and Spices"]
		groups["Herbs and Spices"] = hs[:len(hs)-1]
		total--
	}
	byName := make(map[string]string, total)
	for gname, members := range groups {
		for _, m := range members {
			byName[m] = gname
		}
	}
	return groups, byName
}

func groupOrder(groups map[string][]string) []string {
	out := make([]string, 0, len(groups))
	for g := range groups {
		out = append(out, g)
	}
	// Stable order for deterministic graphs.
	sort.Strings(out)
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
