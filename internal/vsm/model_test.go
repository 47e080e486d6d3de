package vsm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"magnet/internal/itemset"
	"magnet/internal/rdf"
	"magnet/internal/schema"
)

var (
	pType       = rdf.Type
	pTitle      = rdf.DCTitle
	pContent    = rdf.IRI(ex + "content")
	pCourse     = rdf.IRI(ex + "course")
	pMethod     = rdf.IRI(ex + "cookingMethod")
	pIngredient = rdf.IRI(ex + "ingredient")
	pCuisine    = rdf.IRI(ex + "cuisine")
	clsRecipe   = rdf.IRI(ex + "Recipe")
)

// figure3Graph builds the paper's Figure 3 example: the 'Apple Cobbler
// Cake' recipe plus companions so idf is meaningful.
func figure3Graph() (*rdf.Graph, *schema.Store, []rdf.IRI) {
	gb := rdf.NewBuilder()

	cobbler := rdf.IRI(ex + "appleCobblerCake")
	gb.Add(cobbler, pType, clsRecipe)
	gb.Add(cobbler, pTitle, rdf.NewString("Apple Cobbler Cake"))
	gb.Add(cobbler, pContent, rdf.NewString("Mix apples with batter and bake the cake"))
	gb.Add(cobbler, pCourse, rdf.IRI(ex+"Dessert"))
	gb.Add(cobbler, pMethod, rdf.IRI(ex+"Bake"))
	gb.Add(cobbler, pIngredient, rdf.IRI(ex+"Apple"))
	gb.Add(cobbler, pIngredient, rdf.IRI(ex+"Flour"))
	gb.Add(cobbler, pIngredient, rdf.IRI(ex+"Butter"))

	pie := rdf.IRI(ex + "applePie")
	gb.Add(pie, pType, clsRecipe)
	gb.Add(pie, pTitle, rdf.NewString("Apple Pie"))
	gb.Add(pie, pContent, rdf.NewString("Roll the dough and bake with apples"))
	gb.Add(pie, pCourse, rdf.IRI(ex+"Dessert"))
	gb.Add(pie, pMethod, rdf.IRI(ex+"Bake"))
	gb.Add(pie, pIngredient, rdf.IRI(ex+"Apple"))
	gb.Add(pie, pIngredient, rdf.IRI(ex+"Flour"))

	salad := rdf.IRI(ex + "greekSalad")
	gb.Add(salad, pType, clsRecipe)
	gb.Add(salad, pTitle, rdf.NewString("Greek Salad"))
	gb.Add(salad, pContent, rdf.NewString("Toss feta with olives"))
	gb.Add(salad, pCourse, rdf.IRI(ex+"Appetizer"))
	gb.Add(salad, pMethod, rdf.IRI(ex+"Raw"))
	gb.Add(salad, pCuisine, rdf.IRI(ex+"Greek"))
	gb.Add(salad, pIngredient, rdf.IRI(ex+"Feta"))
	gb.Add(salad, pIngredient, rdf.IRI(ex+"Olive"))

	items := []rdf.IRI{cobbler, pie, salad}
	g := gb.Freeze()
	sch := schema.NewStore(g)
	return g, sch, items
}

func TestVectorizeFigure4Shape(t *testing.T) {
	g, sch, items := figure3Graph()
	m := New(g, sch, Options{})
	m.indexItems(items...)

	raw := m.rawVector(items[0])

	// Object coordinates for each attribute/value pair.
	wantObj := []Coord{
		{Kind: CoordObject, Path: []rdf.IRI{pType}, Value: clsRecipe},
		{Kind: CoordObject, Path: []rdf.IRI{pCourse}, Value: rdf.IRI(ex + "Dessert")},
		{Kind: CoordObject, Path: []rdf.IRI{pMethod}, Value: rdf.IRI(ex + "Bake")},
		{Kind: CoordObject, Path: []rdf.IRI{pIngredient}, Value: rdf.IRI(ex + "Apple")},
	}
	for _, c := range wantObj {
		if raw[c.Key()] == 0 {
			t.Errorf("missing object coordinate %v", c)
		}
	}
	// Text coordinates: title words split and stemmed ("apple", "cobbler",
	// "cake" — lower-case in the figure).
	for _, w := range []string{"appl", "cobbler", "cake"} {
		c := Coord{Kind: CoordWord, Path: []rdf.IRI{pTitle}, Word: w}
		if raw[c.Key()] == 0 {
			t.Errorf("missing title word coordinate %q", w)
		}
	}
	// Ingredient values are objects, never split into words.
	for k := range raw {
		c, ok := ParseCoord(k)
		if !ok {
			t.Fatalf("unparseable coordinate %q", k)
		}
		if c.Kind == CoordWord && c.Path[0] == pIngredient {
			t.Errorf("ingredient should not yield word coordinates: %v", c)
		}
	}
}

func TestPerAttributeNormalization(t *testing.T) {
	g, sch, items := figure3Graph()
	m := New(g, sch, Options{})
	m.indexItems(items...)
	raw := m.rawVector(items[0])

	// Three ingredients: each contributes 1/3.
	ing := Coord{Kind: CoordObject, Path: []rdf.IRI{pIngredient}, Value: rdf.IRI(ex + "Apple")}
	if w := raw[ing.Key()]; math.Abs(w-1.0/3.0) > 1e-9 {
		t.Errorf("ingredient share = %v, want 1/3", w)
	}
	// Single-valued course contributes 1.
	course := Coord{Kind: CoordObject, Path: []rdf.IRI{pCourse}, Value: rdf.IRI(ex + "Dessert")}
	if w := raw[course.Key()]; math.Abs(w-1) > 1e-9 {
		t.Errorf("course share = %v, want 1", w)
	}
	// Title words sum to 1 (per-attribute total mass equal across attrs).
	var titleMass float64
	for k, w := range raw {
		if c, ok := ParseCoord(k); ok && c.Kind == CoordWord && c.Path[0] == pTitle {
			titleMass += w
		}
	}
	if math.Abs(titleMass-1) > 1e-9 {
		t.Errorf("title word mass = %v, want 1", titleMass)
	}
}

func TestPerAttributeNormalizationAblation(t *testing.T) {
	g, sch, items := figure3Graph()
	m := New(g, sch, Options{DisablePerAttributeNorm: true})
	m.indexItems(items...)
	raw := m.rawVector(items[0])
	ing := Coord{Kind: CoordObject, Path: []rdf.IRI{pIngredient}, Value: rdf.IRI(ex + "Apple")}
	if w := raw[ing.Key()]; w != 1 {
		t.Errorf("raw count = %v, want 1 (no division)", w)
	}
}

func TestUniversalCoordinateVanishes(t *testing.T) {
	g, sch, items := figure3Graph()
	m := New(g, sch, Options{})
	m.indexItems(items...)
	vec := m.vector(items[0])
	typeCoord := Coord{Kind: CoordObject, Path: []rdf.IRI{pType}, Value: clsRecipe}
	if _, ok := vec[typeCoord.Key()]; ok {
		t.Error("type=Recipe appears in every doc; idf should remove it")
	}
}

func TestVectorsUnitNorm(t *testing.T) {
	g, sch, items := figure3Graph()
	m := New(g, sch, Options{})
	m.indexItems(items...)
	for _, it := range items {
		var norm float64
		for _, w := range m.vector(it) {
			norm += w * w
		}
		if math.Abs(norm-1) > 1e-9 {
			t.Errorf("norm²(%s) = %v", it.LocalName(), norm)
		}
	}
}

func TestSimilarityOrdering(t *testing.T) {
	g, sch, items := figure3Graph()
	m := New(g, sch, Options{})
	m.indexItems(items...)
	cobbler, pie, salad := items[0], items[1], items[2]
	if m.Similarity(cobbler, pie) <= m.Similarity(cobbler, salad) {
		t.Errorf("apple desserts should be more similar than dessert vs salad: %v vs %v",
			m.Similarity(cobbler, pie), m.Similarity(cobbler, salad))
	}
	sims := m.SimilarToItem(cobbler, 5)
	if len(sims) == 0 || m.g.SubjectByID(sims[0].ID) != pie {
		t.Errorf("SimilarToItem = %v, want pie first", sims)
	}
	for _, s := range sims {
		if m.g.SubjectByID(s.ID) == cobbler {
			t.Error("item itself must be excluded")
		}
	}
}

func TestSimilarToCollection(t *testing.T) {
	g, sch, items := figure3Graph()
	m := New(g, sch, Options{})
	m.indexItems(items...)
	coll := []rdf.IRI{items[0], items[1]} // the two apple desserts
	ids := m.g.SubjectIDsOf(coll)
	c := m.Centroid(ids)
	got := m.Nearest(c, 5, ids)
	for _, s := range got {
		if it := m.g.SubjectByID(s.ID); it == items[0] || it == items[1] {
			t.Error("members must be excluded when excluded")
		}
	}
	withMembers := m.Nearest(c, 5, itemset.Set{})
	if len(withMembers) <= len(got) {
		t.Error("including members should not shrink the result")
	}
}

func TestUnitCircleNumericEncoding(t *testing.T) {
	// Paper §5.4: e-mails a day apart should share numeric similarity;
	// e-mails far apart should not.
	gb := rdf.NewBuilder()
	pSent := rdf.IRI(ex + "sent")
	mk := func(id string, day time.Time) rdf.IRI {
		it := rdf.IRI(ex + id)
		gb.Add(it, pType, rdf.IRI(ex+"Email"))
		gb.Add(it, pSent, rdf.NewTime(day))
		// Distinct body words so only the date links them.
		gb.Add(it, pContent, rdf.NewString("unique"+id))
		return it
	}
	base := time.Date(2003, 7, 31, 0, 0, 0, 0, time.UTC)
	a := mk("a", base)
	b := mk("b", base.AddDate(0, 0, 1))
	c := mk("c", base.AddDate(2, 0, 0))

	g := gb.Freeze()
	sch := schema.NewStore(g)
	m := New(g, sch, Options{})
	m.indexItems(a, b, c)

	// All three share the numeric coordinate pair; its norm contribution is
	// identical ("all values have the same norm").
	simAB := m.Similarity(a, b)
	simAC := m.Similarity(a, c)
	if simAB <= simAC {
		t.Errorf("a day apart (%v) should beat two years apart (%v)", simAB, simAC)
	}
	if simAC <= 0 {
		t.Errorf("far dates should still have small positive dot product, got %v", simAC)
	}
}

func TestRawNumericAblationSwamps(t *testing.T) {
	// §5.4's motivating failure: with raw numeric coordinates, arbitrarily
	// large values swamp every other coordinate after normalization, so two
	// items sharing *nothing* but possessing the numeric attribute come out
	// nearly identical. The unit-circle encoding keeps them dissimilar
	// (θ = 0 vs θ = π/2 ⇒ dot ≈ 0).
	build := func(opts Options) (simUnrelated float64) {
		gb := rdf.NewBuilder()
		pArea := rdf.IRI(ex + "area")
		schema.SetValueType(gb, pArea, schema.Integer)
		a := rdf.IRI(ex + "a")
		b := rdf.IRI(ex + "b")
		c := rdf.IRI(ex + "c")
		gb.Add(a, pContent, rdf.NewString("cardinal bird watching"))
		gb.Add(a, pArea, rdf.NewInteger(1))
		gb.Add(b, pContent, rdf.NewString("volcano geology survey"))
		gb.Add(b, pArea, rdf.NewInteger(5_000_000))
		// A third document keeps word idf positive.
		gb.Add(c, pContent, rdf.NewString("something else entirely"))
		gb.Add(c, pArea, rdf.NewInteger(2_500_000))
		g := gb.Freeze()
		sch := schema.NewStore(g)
		m := New(g, sch, opts)
		m.indexItems(a, b, c)
		return m.Similarity(a, b)
	}
	unitCircle := build(Options{})
	raw := build(Options{RawNumeric: true})
	if raw < 0.8 {
		t.Errorf("raw numeric should manufacture high similarity for unrelated items, got %v", raw)
	}
	if unitCircle > 0.2 {
		t.Errorf("unit circle should keep range-extreme unrelated items dissimilar, got %v", unitCircle)
	}
}

func TestCompositionAnnotation(t *testing.T) {
	// §5.1: documents have authors; authors have fields of expertise. With
	// the composition annotation, "the author's field of expertise" becomes
	// a coordinate.
	gb := rdf.NewBuilder()
	pAuthor := rdf.IRI(ex + "author")
	pField := rdf.IRI(ex + "expertise")
	doc := rdf.IRI(ex + "doc1")
	alice := rdf.IRI(ex + "alice")
	gb.Add(doc, pAuthor, alice)
	gb.Add(alice, pField, rdf.IRI(ex+"IR"))

	composed := Coord{Kind: CoordObject, Path: []rdf.IRI{pAuthor, pField}, Value: rdf.IRI(ex + "IR")}

	g := gb.Freeze()
	sch := schema.NewStore(g)
	m := New(g, sch, Options{})
	m.indexItems(doc)
	if raw := m.rawVector(doc); raw[composed.Key()] != 0 {
		t.Error("composition should require an annotation")
	}

	schema.SetCompose(gb, pAuthor)
	g = gb.Freeze()
	sch = schema.NewStore(g)
	m = New(g, sch, Options{})
	m.indexItems(doc)
	if raw := m.rawVector(doc); raw[composed.Key()] == 0 {
		t.Error("annotated composition missing from vector")
	}

	// Ablation switch suppresses it even when annotated.
	m2 := New(g, sch, Options{DisableCompositions: true})
	m2.indexItems(doc)
	if raw := m2.rawVector(doc); raw[composed.Key()] != 0 {
		t.Error("DisableCompositions should suppress composed coordinates")
	}
}

func TestTreeShapedDeepComposition(t *testing.T) {
	// §6.2: tree-shaped (XML) data licenses multi-step composition without
	// per-property annotations.
	gb := rdf.NewBuilder()
	p1, p2, p3 := rdf.IRI(ex+"sec"), rdf.IRI(ex+"para"), rdf.IRI(ex+"textOf")
	a, b, c := rdf.IRI(ex+"art"), rdf.IRI(ex+"s1"), rdf.IRI(ex+"p1")
	gb.Add(a, p1, b)
	gb.Add(b, p2, c)
	gb.Add(c, p3, rdf.NewString("retrieval"))

	deep := Coord{Kind: CoordWord, Path: []rdf.IRI{p1, p2, p3}, Word: "retriev"}

	g := gb.Freeze()
	sch := schema.NewStore(g)
	m := New(g, sch, Options{})
	m.indexItems(a)
	if raw := m.rawVector(a); raw[deep.Key()] != 0 {
		t.Error("deep composition should not happen on general graphs")
	}

	schema.SetTreeShaped(gb)
	g = gb.Freeze()
	m = New(g, schema.NewStore(g), Options{})
	m.indexItems(a)
	if raw := m.rawVector(a); raw[deep.Key()] == 0 {
		t.Error("tree-shaped dataset should follow multiple steps")
	}
}

func TestCyclicGraphTerminates(t *testing.T) {
	gb := rdf.NewBuilder()
	schema.SetTreeShaped(gb) // lie: annotation says tree but graph has a cycle
	pNext := rdf.IRI(ex + "next")
	a, b := rdf.IRI(ex+"a"), rdf.IRI(ex+"b")
	gb.Add(a, pNext, b)
	gb.Add(b, pNext, a)
	gb.Add(a, pContent, rdf.NewString("alpha"))
	gb.Add(b, pContent, rdf.NewString("beta"))
	g := gb.Freeze()
	sch := schema.NewStore(g)

	done := make(chan struct{})
	go func() {
		m := New(g, sch, Options{})
		m.indexItems(a, b)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cyclic graph traversal did not terminate")
	}
}

func TestRefinementCoords(t *testing.T) {
	// Build 6 recipes: 4 Greek (2 with feta), 2 Mexican; refine the Greek
	// subset — "feta" should rank as a refinement while "type=Recipe"
	// (universal) must not appear.
	gb := rdf.NewBuilder()
	var greek []rdf.IRI
	var all []rdf.IRI
	for i := 0; i < 6; i++ {
		it := rdf.IRI(fmt.Sprintf("%sr%d", ex, i))
		all = append(all, it)
		gb.Add(it, pType, clsRecipe)
		if i < 4 {
			gb.Add(it, pCuisine, rdf.IRI(ex+"Greek"))
			greek = append(greek, it)
		} else {
			gb.Add(it, pCuisine, rdf.IRI(ex+"Mexican"))
		}
		if i < 2 {
			gb.Add(it, pIngredient, rdf.IRI(ex+"Feta"))
		}
		gb.Add(it, pIngredient, rdf.IRI(fmt.Sprintf("%sunique%d", ex, i)))
	}
	g := gb.Freeze()
	sch := schema.NewStore(g)
	m := New(g, sch, Options{})
	m.indexItems(all...)

	c := m.Centroid(m.g.SubjectIDsOf(greek))
	coords := m.TopCoords(c, 10)
	if len(coords) == 0 {
		t.Fatal("no refinement coordinates")
	}
	foundFeta := false
	for _, wc := range coords {
		if wc.Coord.Kind == CoordObject && wc.Coord.Value == rdf.IRI(ex+"Feta") {
			foundFeta = true
		}
		if wc.Coord.Kind == CoordObject && wc.Coord.Value == clsRecipe {
			t.Error("universal type coordinate should not be suggested")
		}
		if wc.Coord.Kind == CoordNumeric {
			t.Error("numeric coordinates must be filtered out")
		}
	}
	if !foundFeta {
		t.Errorf("feta not among refinements: %v", coords)
	}

	// Weights descend, and a smaller k takes a prefix of the ranking.
	for i := 1; i < len(coords); i++ {
		if coords[i].Weight > coords[i-1].Weight {
			t.Errorf("coordinate %d outweighs its predecessor: %v", i, coords)
		}
	}
	if top := m.TopCoords(c, 2); len(coords) < 2 || !reflect.DeepEqual(top, coords[:2]) {
		t.Errorf("TopCoords(2) = %v, want the first two of %v", top, coords)
	}
	if m.TopCoords(c, 0) != nil {
		t.Error("k=0 should give nil")
	}
}

func TestVectorizeBeyondIndexAllClampsRange(t *testing.T) {
	gb := rdf.NewBuilder()
	pN := rdf.IRI(ex + "n")
	a, b := rdf.IRI(ex+"a"), rdf.IRI(ex+"b")
	gb.Add(a, pN, rdf.NewInteger(0))
	gb.Add(b, pN, rdf.NewInteger(10))
	// An item outside the indexed set, beyond the observed range: clamps
	// to θ = π/2.
	c := rdf.IRI(ex + "c")
	gb.Add(c, pN, rdf.NewInteger(1000))
	g := gb.Freeze()
	sch := schema.NewStore(g)
	m := New(g, sch, Options{})
	m.indexItems(a, b)

	vec := m.rawVector(c)
	sinKey := Coord{Kind: CoordNumeric, Path: []rdf.IRI{pN}, Axis: "sin"}.Key()
	cosKey := Coord{Kind: CoordNumeric, Path: []rdf.IRI{pN}, Axis: "cos"}.Key()
	if vec[sinKey] == 0 {
		t.Error("clamped value should sit at the sin end of the quadrant")
	}
	if math.Abs(vec[cosKey]) > 1e-9 {
		t.Errorf("cos component should be ~0 at clamp, got %v", vec[cosKey])
	}
}

func TestExplainSimilarity(t *testing.T) {
	g, sch, items := figure3Graph()
	m := New(g, sch, Options{})
	m.indexItems(items...)
	cobbler, pie := items[0], items[1]

	expl := m.ExplainSimilarity(cobbler, pie, 0)
	if len(expl) == 0 {
		t.Fatal("no explanation for similar desserts")
	}
	// Contributions sum to the similarity and are sorted descending.
	var sum float64
	for i, wc := range expl {
		sum += wc.Weight
		if i > 0 && wc.Weight > expl[i-1].Weight {
			t.Error("explanation not sorted")
		}
	}
	if !ApproxEqual(sum, m.Similarity(cobbler, pie)) {
		t.Errorf("contributions sum %v ≠ similarity %v", sum, m.Similarity(cobbler, pie))
	}
	// The same coordinates in the same order as the map-based reference.
	for _, pair := range [][2]rdf.IRI{{cobbler, pie}, {pie, cobbler}, {cobbler, items[2]}} {
		got, want := m.ExplainSimilarity(pair[0], pair[1], 0), refExplain(m, pair[0], pair[1])
		if len(got) != len(want) {
			t.Fatalf("%v: %d coordinates, reference %d", pair, len(got), len(want))
		}
		for i := range want {
			if got[i].Coord.Key() != want[i].Coord.Key() || !ApproxEqual(got[i].Weight, want[i].Weight) {
				t.Fatalf("%v[%d] = %s %v, reference %s %v", pair, i, got[i].Coord.Key(), got[i].Weight, want[i].Coord.Key(), want[i].Weight)
			}
		}
	}
	// The shared Apple ingredient is among the top contributors.
	found := false
	for _, wc := range expl {
		if wc.Coord.Kind == CoordObject && wc.Coord.Value == rdf.IRI(ex+"Apple") {
			found = true
		}
	}
	if !found {
		t.Errorf("shared apple missing from explanation: %v", expl)
	}
	// k truncates.
	if got := m.ExplainSimilarity(cobbler, pie, 2); len(got) != 2 {
		t.Errorf("k=2 gave %d", len(got))
	}
	// Disjoint items explain as empty.
	if got := m.ExplainSimilarity(cobbler, rdf.IRI(ex+"missing"), 5); len(got) != 0 {
		t.Errorf("missing item explanation = %v", got)
	}
}

// refExplain is ExplainSimilarity over map vectors: every coordinate the
// two items share, weighted by the product of its weights, sorted by weight
// (ApproxEqual ties broken by coordinate key).
func refExplain(m *Model, a, b rdf.IRI) []WeightedCoord {
	va, vb := m.vector(a), m.vector(b)
	var out []WeightedCoord
	for term, wa := range va {
		wb, shared := vb[term]
		if !shared {
			continue
		}
		if c, ok := ParseCoord(term); ok {
			out = append(out, WeightedCoord{Coord: c, Weight: wa * wb})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !ApproxEqual(out[i].Weight, out[j].Weight) {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Coord.Key() < out[j].Coord.Key()
	})
	return out
}

// indexItems indexes items given as IRIs.
func (m *Model) indexItems(items ...rdf.IRI) { m.IndexAll(m.g.SubjectIDsOf(items)) }

// vector returns the item's normalized tf·idf vector as a coordinate-keyed
// map; nil when the item is not indexed.
func (m *Model) vector(item rdf.IRI) map[string]float64 {
	ws := m.Weights(item)
	if ws == nil {
		return nil
	}
	out := make(map[string]float64, len(ws))
	for _, tw := range ws {
		out[tw.Term] = tw.Weight
	}
	return out
}

// Property: for random small graphs, every indexed vector is unit norm (or
// empty) and Vectorize is deterministic.
func TestQuickModelInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gb := rdf.NewBuilder()
		var items []rdf.IRI
		for i := 0; i < 6; i++ {
			it := rdf.IRI(fmt.Sprintf("%si%d", ex, i))
			items = append(items, it)
			for j := 0; j < rng.Intn(4)+1; j++ {
				p := rdf.IRI(fmt.Sprintf("%sp%d", ex, rng.Intn(3)))
				switch rng.Intn(3) {
				case 0:
					gb.Add(it, p, rdf.IRI(fmt.Sprintf("%sv%d", ex, rng.Intn(4))))
				case 1:
					gb.Add(it, p, rdf.NewString(fmt.Sprintf("word%d text", rng.Intn(4))))
				case 2:
					gb.Add(it, rdf.IRI(ex+"num"), rdf.NewInteger(int64(rng.Intn(100))))
				}
			}
		}
		g := gb.Freeze()
		sch := schema.NewStore(g)
		m := New(g, sch, Options{})
		m.indexItems(items...)
		for _, it := range items {
			var norm float64
			for _, w := range m.vector(it) {
				norm += w * w
			}
			if len(m.vector(it)) > 0 && math.Abs(norm-1) > 1e-6 {
				return false
			}
			a := m.rawVector(it)
			b := m.rawVector(it)
			if len(a) != len(b) {
				return false
			}
			for k, v := range a {
				if math.Abs(b[k]-v) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
