// Benchmark harness regenerating every figure and evaluation result of the
// paper (see DESIGN.md's experiment index E1–E12) plus performance and
// ablation benchmarks (P1–P6 and the design-choice ablations). Run:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports domain metrics via b.ReportMetric where the paper
// makes a quantitative or qualitative claim, so `go test -bench` output is
// directly comparable with EXPERIMENTS.md.
package magnet_test

import (
	"context"
	"io"
	"sync"
	"testing"

	"magnet/internal/annotate"
	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/factbook"
	"magnet/internal/datasets/inbox"
	"magnet/internal/datasets/inex"
	"magnet/internal/datasets/recipes"
	"magnet/internal/datasets/states"
	"magnet/internal/facets"
	"magnet/internal/index"
	"magnet/internal/inexeval"
	"magnet/internal/itemset"
	"magnet/internal/qlang"
	"magnet/internal/query"
	"magnet/internal/rdf"
	"magnet/internal/render"
	"magnet/internal/schema"
	"magnet/internal/simuser"
	"magnet/internal/vsm"
)

// benchCorpusSize is the paper's full 6,444-recipe corpus, so P and E
// benchmark numbers are directly comparable with EXPERIMENTS.md and the
// BENCH_*.json trajectory.
const benchCorpusSize = 6444

var (
	recipeOnce sync.Once
	recipeM    *core.Magnet

	inboxOnce sync.Once
	inboxM    *core.Magnet

	statesOnce sync.Once
	statesM    *core.Magnet

	inexOnce   sync.Once
	inexSys    *inexeval.System
	inexNoTree *inexeval.System

	studyOnce sync.Once
	study     *simuser.Study
)

func recipeMagnet() *core.Magnet {
	recipeOnce.Do(func() {
		gb := recipes.Build(recipes.Config{Recipes: benchCorpusSize, Seed: 1})
		recipeM = core.Open(gb, core.Options{})
	})
	return recipeM
}

// engineOf builds a query engine equal to m's own: the same graph, schema,
// text index and item universe its sessions evaluate steps with.
func engineOf(m *core.Magnet) *query.Engine {
	return query.NewEngine(m.Graph(), m.Schema(), m.TextIndex(), m.Graph().SubjectIDsOf(m.Items()))
}

// evaluate runs q through e's instrumented path and returns the matching
// item IDs.
func evaluate(e *query.Engine, q query.Query) itemset.Set {
	return e.EvalContext(context.Background(), q)
}

func inboxMagnet() *core.Magnet {
	inboxOnce.Do(func() {
		inboxM = core.Open(inbox.Build(inbox.Config{}), core.Options{})
	})
	return inboxM
}

func statesMagnet() *core.Magnet {
	statesOnce.Do(func() {
		gb, err := states.Build()
		if err != nil {
			panic(err) // test-only helper outside any *testing.B
		}
		states.Annotate(gb)
		statesM = core.Open(gb, core.Options{IndexAllSubjects: true})
	})
	return statesM
}

func inexSystems(b *testing.B) (*inexeval.System, *inexeval.System) {
	inexOnce.Do(func() {
		c, err := inex.Build(inex.Config{Articles: 120})
		if err != nil {
			b.Fatal(err)
		}
		inexSys = inexeval.Open(c)
		c2, err := inex.Build(inex.Config{Articles: 120, SkipTreeAnnotation: true})
		if err != nil {
			b.Fatal(err)
		}
		inexNoTree = inexeval.Open(c2)
	})
	return inexSys, inexNoTree
}

func studyEnv() *simuser.Study {
	studyOnce.Do(func() {
		study = simuser.Prepare(simuser.Config{Recipes: benchCorpusSize})
	})
	return study
}

func greekParsleyQuery() query.Query {
	return query.NewQuery(
		query.TypeIs(recipes.ClassRecipe),
		query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Greek")},
		query.Property{Prop: recipes.PropIngredient, Value: recipes.Ingredient("Parsley")},
	)
}

// ---------------------------------------------------------------- E1–E8 --

// BenchmarkFig1NavigationPane (E1): evaluate the Figure 1 query and build
// the full navigation pane (all analysts + advisor selection).
func BenchmarkFig1NavigationPane(b *testing.B) {
	m := recipeMagnet()
	b.ResetTimer()
	var suggestions int
	for i := 0; i < b.N; i++ {
		s := m.NewSession()
		s.Apply(blackboard.ReplaceQuery{Query: greekParsleyQuery()})
		pane := s.Pane()
		suggestions = len(pane.AllSuggestions())
	}
	b.ReportMetric(float64(suggestions), "suggestions")
}

// BenchmarkFig2FacetOverview (E2): the large-collection facet overview over
// the full recipe collection.
func BenchmarkFig2FacetOverview(b *testing.B) {
	m := recipeMagnet()
	s := m.NewSession()
	s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(query.TypeIs(recipes.ClassRecipe))})
	b.ResetTimer()
	var nf int
	for i := 0; i < b.N; i++ {
		nf = len(s.Overview(6))
	}
	b.ReportMetric(float64(nf), "facets")
}

// BenchmarkPaneAllItems: the navigation pane over all 6,444 recipes, the
// broadest collection a click shows. Every Refine Collections "n of N"
// count and every range-widget preview sees the whole corpus here.
func BenchmarkPaneAllItems(b *testing.B) {
	m := recipeMagnet()
	s := m.NewSession()
	s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(query.TypeIs(recipes.ClassRecipe))})
	b.ReportAllocs()
	b.ResetTimer()
	var suggestions int
	for i := 0; i < b.N; i++ {
		suggestions = len(s.Pane().AllSuggestions())
	}
	b.ReportMetric(float64(suggestions), "suggestions")
}

// BenchmarkFig5RangeQuery (E4): the Figure 5 date-range selection — build
// the preview histogram and evaluate the range predicate.
func BenchmarkFig5RangeQuery(b *testing.B) {
	m := inboxMagnet()
	s := m.NewSession()
	e := engineOf(m)
	b.ResetTimer()
	var matched int
	for i := 0; i < b.N; i++ {
		h, ok := facets.NumericHistogram(m.Schema(), s.Current().IDs, inbox.PropSent, 24)
		if !ok {
			b.Fatal("no histogram")
		}
		span := h.Max - h.Min
		lo, hi := h.Min+span/3, h.Min+2*span/3
		set := query.Range{Prop: inbox.PropSent, Min: &lo, Max: &hi}.Eval(e)
		matched = set.Len()
	}
	b.ReportMetric(float64(matched), "matched")
}

// BenchmarkFig6InboxPane (E5): the inbox navigation pane, including the
// composed body·{type,content,creator,date} suggestions.
func BenchmarkFig6InboxPane(b *testing.B) {
	m := inboxMagnet()
	b.ResetTimer()
	var composed int
	for i := 0; i < b.N; i++ {
		s := m.NewSession()
		s.Apply(blackboard.ReplaceQuery{Query: query.NewQuery(query.Or{Ps: []query.Predicate{
			query.TypeIs(inbox.ClassMessage), query.TypeIs(inbox.ClassNewsItem),
		}})})
		composed = 0
		for _, sg := range s.Board().Suggestions() {
			if act, ok := sg.Action.(blackboard.Refine); ok {
				if pp, ok := act.Add.(query.PathProperty); ok && pp.Path[0] == inbox.PropBody {
					composed++
				}
			}
		}
	}
	b.ReportMetric(float64(composed), "composedSuggestions")
}

// BenchmarkFig7CardinalStates (E6): the unannotated 50-states word
// refinement — find and apply the 'cardinal' term constraint.
func BenchmarkFig7CardinalStates(b *testing.B) {
	e := engineOf(statesMagnet())
	b.ResetTimer()
	var cardinal int
	for i := 0; i < b.N; i++ {
		set := query.TermMatch{Term: "cardin", Field: string(states.PropBird)}.Eval(e)
		cardinal = set.Len()
	}
	if cardinal != 7 {
		b.Fatalf("cardinal states = %d, want 7", cardinal)
	}
	b.ReportMetric(float64(cardinal), "cardinalStates")
}

// BenchmarkFig8AreaOutliers (E7): the annotated states' area statistics —
// histogram plus outlier detection (Alaska).
func BenchmarkFig8AreaOutliers(b *testing.B) {
	m := statesMagnet()
	items := m.ItemIDs()
	b.ResetTimer()
	var outliers int
	for i := 0; i < b.N; i++ {
		if _, ok := facets.NumericHistogram(m.Schema(), items, states.PropArea, 12); !ok {
			b.Fatal("no histogram")
		}
		outliers = facets.Outliers(m.Schema(), items, states.PropArea, 3).Len()
	}
	b.ReportMetric(float64(outliers), "outliers")
}

// BenchmarkFactbookSharedProperty (E8): shared-currency/-independence-day
// suggestions from a country item view.
func BenchmarkFactbookSharedProperty(b *testing.B) {
	gb := factbook.Build(factbook.Config{})
	factbook.Annotate(gb)
	m := core.Open(gb, core.Options{})
	b.ResetTimer()
	var shared int
	for i := 0; i < b.N; i++ {
		s := m.NewSession()
		s.OpenItem(factbook.Country(0))
		shared = 0
		for _, sg := range s.Board().Suggestions() {
			if sg.Group == "Sharing a property" {
				shared++
			}
		}
	}
	b.ReportMetric(float64(shared), "sharedSuggestions")
}

// --------------------------------------------------------------- E9–E10 --

// BenchmarkInexCAS (E9): content-and-structure topics through composed
// coordinates; reports mean recall with the tree annotation.
func BenchmarkInexCAS(b *testing.B) {
	sys, _ := inexSystems(b)
	b.ResetTimer()
	var recall float64
	for i := 0; i < b.N; i++ {
		recall = inexeval.MeanRecall(sys.Run(), inex.CAS)
	}
	b.ReportMetric(recall, "meanRecall")
}

// BenchmarkInexCO (E10): content-only topics through the text index.
func BenchmarkInexCO(b *testing.B) {
	sys, _ := inexSystems(b)
	b.ResetTimer()
	var recall float64
	for i := 0; i < b.N; i++ {
		recall = inexeval.MeanRecall(sys.Run(), inex.CO)
	}
	b.ReportMetric(recall, "meanRecall")
}

// ------------------------------------------------------------- E11–E12 --

// BenchmarkStudyTask1 (E11): one simulated participant running the walnut
// task on each system; reports the complete-system mean over the bench run.
func BenchmarkStudyTask1(b *testing.B) {
	st := studyEnv()
	b.ResetTimer()
	sumC, sumB := 0, 0
	for i := 0; i < b.N; i++ {
		seed := int64(i)*7919 + 1
		sumC += st.RunTask1(simuser.Complete, seed)
		sumB += st.RunTask1(simuser.Baseline, seed)
	}
	b.ReportMetric(float64(sumC)/float64(b.N), "complete")
	b.ReportMetric(float64(sumB)/float64(b.N), "baseline")
}

// BenchmarkStudyTask2 (E12): one simulated participant running the
// Mexican-menu task on each system.
func BenchmarkStudyTask2(b *testing.B) {
	st := studyEnv()
	b.ResetTimer()
	sumC, sumB := 0, 0
	for i := 0; i < b.N; i++ {
		seed := int64(i)*104729 + 7
		sumC += st.RunTask2(simuser.Complete, seed)
		sumB += st.RunTask2(simuser.Baseline, seed)
	}
	b.ReportMetric(float64(sumC)/float64(b.N), "complete")
	b.ReportMetric(float64(sumB)/float64(b.N), "baseline")
}

// --------------------------------------------------------------- P1–P6 --

// BenchmarkIndexAll (P1): indexing throughput — (re)building every item
// vector of the corpus (§5.2's "indexing the data in advance").
func BenchmarkIndexAll(b *testing.B) {
	m := recipeMagnet()
	items := m.Graph().SubjectIDsOf(m.Items())
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Model().IndexAll(items)
	}
	b.ReportMetric(float64(items.Len()), "items")
}

// BenchmarkSimilarToItem (P2): top-20 nearest neighbours of one item.
func BenchmarkSimilarToItem(b *testing.B) {
	m := recipeMagnet()
	item := m.Graph().SubjectsOfType(recipes.ClassRecipe)[42]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Model().SimilarToItem(item, 20)
	}
}

// BenchmarkCentroidRefinement (P3): collection centroid plus refinement
// term extraction (§5.3) over a ~100-recipe collection.
func BenchmarkCentroidRefinement(b *testing.B) {
	m := recipeMagnet()
	ids := evaluate(engineOf(m), query.NewQuery(
		query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Greek")}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Model().TopCoords(m.Model().Centroid(ids), 40)
	}
	b.ReportMetric(float64(ids.Len()), "collection")
}

// BenchmarkNearest (P3b): the top 20 non-members nearest a collection's
// centroid, as the collection pane's "similar by content" asks, on the
// Figure 1 view (Greek recipes with parsley), the Mexican recipes, and all
// items. All items excludes nearly every row, so that search scans the
// few rows left instead of walking the centroid's postings.
func BenchmarkNearest(b *testing.B) {
	m := recipeMagnet()
	e := engineOf(m)
	mexican := query.NewQuery(query.TypeIs(recipes.ClassRecipe),
		query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Mexican")})
	for _, view := range []struct {
		name    string
		members itemset.Set
	}{
		{"greek-parsley", evaluate(e, greekParsleyQuery())},
		{"mexican", evaluate(e, mexican)},
		{"all-items", m.ItemIDs()},
	} {
		c := m.Model().Centroid(view.members)
		b.Run(view.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Model().Nearest(c, 20, view.members)
			}
			b.ReportMetric(float64(view.members.Len()), "members")
		})
	}
}

// BenchmarkQueryConjunction (P4): three-constraint conjunctive evaluation.
func BenchmarkQueryConjunction(b *testing.B) {
	e := engineOf(recipeMagnet())
	q := greekParsleyQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evaluate(e, q)
	}
}

// BenchmarkQueryEval (P5): the set-algebra workload behind every
// navigation step — a conjunction mixing disjunction, negation and a
// one-sided range, evaluated over the full recipes@6444 corpus.
func BenchmarkQueryEval(b *testing.B) {
	m := recipeMagnet()
	q := query.NewQuery(
		query.TypeIs(recipes.ClassRecipe),
		query.Or{Ps: []query.Predicate{
			query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Greek")},
			query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Italian")},
		}},
		query.Not{P: query.Property{Prop: recipes.PropIngredient, Value: recipes.Ingredient("Walnuts")}},
		query.AtLeast(recipes.PropServings, 4),
	)
	e := engineOf(m)
	b.ResetTimer()
	var matched int
	for i := 0; i < b.N; i++ {
		matched = evaluate(e, q).Len()
	}
	b.ReportMetric(float64(matched), "matched")
}

// BenchmarkTextSearch (P5b): ranked keyword retrieval over the corpus.
func BenchmarkTextSearch(b *testing.B) {
	m := recipeMagnet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TextIndex().Search("walnut salad", index.AnyField, 20)
	}
}

// BenchmarkRenderPane (P6): rendering a full pane to text.
func BenchmarkRenderPane(b *testing.B) {
	m := recipeMagnet()
	s := m.NewSession()
	s.Apply(blackboard.ReplaceQuery{Query: greekParsleyQuery()})
	pane := s.Pane()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render.Pane(io.Discard, pane, true)
	}
}

// ------------------------------------------------------------ ablations --

func ablationCorpus() (*rdf.Graph, []rdf.IRI) {
	gb := recipes.Build(recipes.Config{Recipes: 500, Seed: 1})
	m := core.Open(gb, core.Options{})
	g := m.Graph()
	return g, m.Items()
}

// BenchmarkAblationCompositions compares IndexAll with and without §5.1
// attribute compositions (the composed ingredient·group coordinates).
func BenchmarkAblationCompositions(b *testing.B) {
	g, items := ablationCorpus()
	for _, cfg := range []struct {
		name string
		opts vsm.Options
	}{
		{"on", vsm.Options{}},
		{"off", vsm.Options{DisableCompositions: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			model := vsm.New(g, schemaOf(g), cfg.opts)
			ids := g.SubjectIDsOf(items)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				model.IndexAll(ids)
			}
		})
	}
}

// BenchmarkAblationPerAttrNorm compares §5.2 per-attribute normalization
// against raw counts.
func BenchmarkAblationPerAttrNorm(b *testing.B) {
	g, items := ablationCorpus()
	for _, cfg := range []struct {
		name string
		opts vsm.Options
	}{
		{"normalized", vsm.Options{}},
		{"raw", vsm.Options{DisablePerAttributeNorm: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			model := vsm.New(g, schemaOf(g), cfg.opts)
			model.IndexAll(g.SubjectIDsOf(items))
			item := items[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				model.SimilarToItem(item, 10)
			}
		})
	}
}

// BenchmarkAblationNumericEncoding compares §5.4's unit-circle encoding
// against raw numeric coordinates.
func BenchmarkAblationNumericEncoding(b *testing.B) {
	g, items := ablationCorpus()
	for _, cfg := range []struct {
		name string
		opts vsm.Options
	}{
		{"unitCircle", vsm.Options{}},
		{"rawValue", vsm.Options{RawNumeric: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			model := vsm.New(g, schemaOf(g), cfg.opts)
			model.IndexAll(g.SubjectIDsOf(items))
			item := items[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				model.SimilarToItem(item, 10)
			}
		})
	}
}

// BenchmarkAblationTreeComposition (the §6.2 ablation): CAS recall with and
// without the tree-shape annotation.
func BenchmarkAblationTreeComposition(b *testing.B) {
	with, without := inexSystems(b)
	b.Run("with", func(b *testing.B) {
		var r float64
		for i := 0; i < b.N; i++ {
			r = inexeval.MeanRecall(with.Run(), inex.CAS)
		}
		b.ReportMetric(r, "meanRecall")
	})
	b.Run("without", func(b *testing.B) {
		var r float64
		for i := 0; i < b.N; i++ {
			r = inexeval.MeanRecall(without.Run(), inex.CAS)
		}
		b.ReportMetric(r, "meanRecall")
	})
}

func schemaOf(g *rdf.Graph) *schema.Store { return schema.NewStore(g) }

// ----------------------------------------------------------- extensions --

// BenchmarkAutoAnnotate (E13): the §7 future-work annotation advisor over
// the raw 50-states CSV.
func BenchmarkAutoAnnotate(b *testing.B) {
	gb, err := states.Build()
	if err != nil {
		b.Fatal(err)
	}
	g := gb.Freeze()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(annotate.Advise(g, annotate.Config{}))
	}
	b.ReportMetric(float64(n), "proposals")
}

// BenchmarkSoftRefine (E14): the fuzzy fallback on the study's
// contradictory walnut ∧ NOT-nuts refinement.
func BenchmarkSoftRefine(b *testing.B) {
	gb := recipes.Build(recipes.Config{Recipes: 600, Seed: 1})
	m := core.Open(gb, core.Options{SoftEmptyResults: true})
	walnuts := query.NewQuery(
		query.TypeIs(recipes.ClassRecipe),
		query.Property{Prop: recipes.PropIngredient, Value: recipes.Ingredient("Walnuts")},
	)
	nuts := query.PathProperty{
		Path:  []rdf.IRI{recipes.PropIngredient, recipes.PropGroup},
		Value: recipes.Group("Nuts"),
	}
	b.ResetTimer()
	var fallback int
	for i := 0; i < b.N; i++ {
		s := m.NewSession()
		s.Apply(blackboard.ReplaceQuery{Query: walnuts})
		s.Refine(nuts, blackboard.Exclude)
		fallback = len(s.Items())
	}
	b.ReportMetric(float64(fallback), "closestMatches")
}

// BenchmarkRankedItems (E15): reordering a keyword collection by text
// relevance with length bias.
func BenchmarkRankedItems(b *testing.B) {
	m := recipeMagnet()
	s := m.NewSession()
	s.Search("walnut")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RankedItems(core.RankOptions{LengthBias: 0.25})
	}
	b.ReportMetric(float64(len(s.Items())), "collection")
}

// BenchmarkQlangParse: parsing and resolving a structured query.
func BenchmarkQlangParse(b *testing.B) {
	m := recipeMagnet()
	r := qlang.NewResolver(m.Graph(), m.Schema())
	const src = `cuisine = Greek AND NOT ingredient.group = Nuts AND servings >= 4 AND directions : walnut`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qlang.Parse(src, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExplainSimilarity: decomposing one similarity score.
func BenchmarkExplainSimilarity(b *testing.B) {
	m := recipeMagnet()
	rs := m.Graph().SubjectsOfType(recipes.ClassRecipe)
	a, c := rs[0], rs[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Model().ExplainSimilarity(a, c, 8)
	}
}
