// Command magnet-eval reproduces the paper's dataset-flexibility evaluation
// (§6.1) and its interface figures. Each experiment prints the rendered
// interface (navigation pane, facet overview, range widget) plus CHECK
// lines with the measured values EXPERIMENTS.md records against the
// paper's claims.
//
// Usage:
//
//	magnet-eval -exp fig1|fig2|fig5|fig6|fig7|fig8|factbook|courses|all
//	            [-recipes N] [-seed N] [-segments dir]
//	magnet-eval -trace [-exp P5|fig2] [-segments dir]
//
// -trace runs one navigation step (query → blackboard → advisors →
// overview) under obs tracing and prints the span tree with per-stage
// durations instead of the experiment output.
//
// -segments runs the experiment against a precompiled segment set written
// by magnet-build instead of building the dataset in memory; the rendered
// output is byte-identical. Only the single-dataset experiments support it
// (fig1, fig2 over recipes; fig5, fig6 over inbox), and the set's manifest
// must match the experiment's dataset and -recipes/-seed parameters.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"magnet/internal/annotate"
	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/dataload"
	"magnet/internal/datasets/artstor"
	"magnet/internal/datasets/courses"
	"magnet/internal/datasets/factbook"
	"magnet/internal/datasets/inbox"
	"magnet/internal/datasets/recipes"
	"magnet/internal/datasets/states"
	"magnet/internal/facets"
	"magnet/internal/obs"
	"magnet/internal/query"
	"magnet/internal/rdf"
	"magnet/internal/render"
)

// apply performs a navigation action, aborting the run on failure: every
// step below depends on the resulting view.
// statesGraph builds the embedded 50-states dataset, exiting on the
// (compile-time-impossible) parse failure rather than panicking.
func statesGraph() *rdf.Builder {
	g, err := states.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "magnet-eval: %v\n", err)
		os.Exit(1)
	}
	return g
}

func apply(s *core.Session, a blackboard.Action) {
	if err := s.Apply(a); err != nil {
		fmt.Fprintf(os.Stderr, "apply: %v\n", err)
		os.Exit(1)
	}
}

// segmentsDir is the -segments flag value; when set, the single-dataset
// experiments open the precompiled set instead of building.
var segmentsDir string

// openDataset opens the named dataset for an experiment: from -segments
// when set (after checking the set's manifest matches the dataset and
// parameters the experiment asked for), otherwise by building it in memory.
// Callers must Close the result.
func openDataset(ctx context.Context, dataset string, n int, seed int64) *core.Magnet {
	var opts core.Options
	if segmentsDir == "" {
		g, allSubjects, err := dataload.Load(dataload.Spec{Dataset: dataset, Recipes: n, Seed: seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "magnet-eval: load %s: %v\n", dataset, err)
			os.Exit(1)
		}
		opts.IndexAllSubjects = allSubjects
		return core.OpenContext(ctx, g, opts)
	}
	m, err := core.OpenSegmentsContext(ctx, segmentsDir, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "magnet-eval: open segments %s: %v\n", segmentsDir, err)
		os.Exit(1)
	}
	man := m.Segments().Manifest
	if man.Dataset != dataset {
		fmt.Fprintf(os.Stderr, "magnet-eval: segment set %s holds dataset %q, experiment needs %q\n",
			segmentsDir, man.Dataset, dataset)
		os.Exit(1)
	}
	want := dataload.Spec{Dataset: dataset, Recipes: n, Seed: seed}.Params()
	for k, v := range want {
		if man.Params[k] != v {
			fmt.Fprintf(os.Stderr, "magnet-eval: segment set %s built with %s=%d, experiment needs %s=%d (rebuild with magnet-build)\n",
				segmentsDir, k, man.Params[k], k, v)
			os.Exit(1)
		}
	}
	return m
}

func main() {
	exp := flag.String("exp", "all", "experiment: fig1, fig2, fig5, fig6, fig7, fig8, factbook, courses, or all")
	nRecipes := flag.Int("recipes", 6444, "recipe corpus size")
	seed := flag.Int64("seed", 1, "dataset seed")
	trace := flag.Bool("trace", false, "trace one navigation step (-exp P5 or fig2) and print its span tree")
	flag.StringVar(&segmentsDir, "segments", "", "run against a precompiled segment set (fig1, fig2, fig5, fig6 only)")
	flag.Parse()

	// Runtime telemetry (runtime.* gauges + GC pause histogram): sampled
	// once up front and every second for the lifetime of the run, so long
	// experiments expose heap/goroutine state alongside the pipeline
	// metrics.
	stopSampler := obs.StartRuntimeSampler(time.Second)
	defer stopSampler()

	if *trace {
		traceExp(*exp, *nRecipes, *seed)
		return
	}

	if segmentsDir != "" {
		switch *exp {
		case "fig1", "fig2", "fig5", "fig6":
		default:
			fmt.Fprintf(os.Stderr, "magnet-eval: -segments supports -exp fig1, fig2, fig5, or fig6, not %q\n", *exp)
			os.Exit(2)
		}
	}

	runners := map[string]func(int, int64){
		"fig1":     fig1,
		"fig2":     fig2,
		"fig5":     fig5,
		"fig6":     fig6,
		"fig7":     fig7,
		"fig8":     fig8,
		"factbook": factbookExp,
		"courses":  coursesExp,
		"autoann":  autoAnnotateExp,
	}
	order := []string{"fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "factbook", "courses", "autoann"}

	if *exp == "all" {
		for _, name := range order {
			runners[name](*nRecipes, *seed)
		}
		return
	}
	run, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "magnet-eval: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	run(*nRecipes, *seed)
}

func header(title string) {
	fmt.Printf("\n============ %s ============\n", title)
}

// traceExp runs one navigation step under obs tracing and prints the span
// tree (-trace). "P5" is the benchmark conjunction over recipes@6444
// (Greek|Italian cuisine, no walnuts, at least 4 servings); "fig2" (and
// the default "all") is the unrefined type query behind the facet
// overview. The step is query → pane (blackboard + advisors) → overview,
// the full work behind rendering one collection page.
func traceExp(exp string, n int, seed int64) {
	var q query.Query
	switch exp {
	case "P5", "p5":
		q = query.NewQuery(
			query.TypeIs(recipes.ClassRecipe),
			query.Or{Ps: []query.Predicate{
				query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Greek")},
				query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Italian")},
			}},
			query.Not{P: query.Property{Prop: recipes.PropIngredient, Value: recipes.Ingredient("Walnuts")}},
			query.AtLeast(recipes.PropServings, 4),
		)
	case "fig2", "all":
		q = query.NewQuery(query.TypeIs(recipes.ClassRecipe))
	default:
		fmt.Fprintf(os.Stderr, "magnet-eval: -trace supports -exp P5 or fig2, not %q\n", exp)
		os.Exit(2)
	}
	// Open inside the trace so the startup spans (startup.load and its
	// per-component children) appear in the printed tree — for segment
	// sets, that is the whole point of -trace -segments.
	ctx, root := obs.StartTrace(context.Background(), "navigation-step")
	start := time.Now()
	m := openDataset(ctx, "recipes", n, seed)
	defer m.Close()
	s := m.NewSession()
	s.SetContext(ctx)
	apply(s, blackboard.ReplaceQuery{Query: q})
	s.Pane()
	s.Overview(6)
	total := time.Since(start)
	root.End()
	s.SetContext(nil)

	// Render from the frozen record — the same immutable form the flight
	// recorder retains and /debug/traces serves — so -trace output and the
	// server's trace endpoint can never drift apart.
	rec := obs.Freeze(root)
	header("trace — one navigation step (" + exp + ")")
	rec.WriteTree(os.Stdout)
	staged := rec.StageDurations()
	cover := 0.0
	if total > 0 {
		cover = float64(staged) / float64(total)
	}
	fmt.Printf("CHECK trace exp=%s spans=%d total=%s stages=%s coverage=%.2f\n",
		exp, len(rec.Spans), total.Round(time.Microsecond), staged.Round(time.Microsecond), cover)
}

// fig1 reproduces Figure 1: the navigation pane after refining to Greek
// recipes with parsley.
func fig1(n int, seed int64) {
	header("E1 / Figure 1 — navigation pane on Greek + parsley recipes")
	m := openDataset(context.Background(), "recipes", n, seed)
	defer m.Close()
	s := m.NewSession()
	apply(s, blackboard.ReplaceQuery{Query: query.NewQuery(
		query.TypeIs(recipes.ClassRecipe),
		query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Greek")},
		query.Property{Prop: recipes.PropIngredient, Value: recipes.Ingredient("Parsley")},
	)})
	pane := s.Pane()
	render.Pane(os.Stdout, pane, false)
	fmt.Println()
	render.Collection(os.Stdout, m.Graph(), s.Items(), 8)

	advisorsSeen := map[string]bool{}
	for _, sec := range pane.Sections {
		advisorsSeen[sec.Advisor] = true
	}
	fmt.Printf("CHECK fig1 items=%d constraints=%d related=%v refine=%v modify=%v history=%v\n",
		s.Current().Len(), len(pane.Constraints),
		advisorsSeen[blackboard.AdvisorRelated], advisorsSeen[blackboard.AdvisorRefine],
		advisorsSeen[blackboard.AdvisorModify], advisorsSeen[blackboard.AdvisorHistory])
}

// fig2 reproduces Figure 2: the large-collection facet overview.
func fig2(n int, seed int64) {
	header("E2 / Figure 2 — facet overview of the full recipe collection")
	m := openDataset(context.Background(), "recipes", n, seed)
	defer m.Close()
	s := m.NewSession()
	apply(s, blackboard.ReplaceQuery{Query: query.NewQuery(query.TypeIs(recipes.ClassRecipe))})
	fs := s.Overview(6)
	render.Overview(os.Stdout, fs, s.Current().Len())

	// Figure 1's caption claim: common ingredients dominate the overview.
	var topIngredients []string
	for _, f := range fs {
		if f.Prop == recipes.PropIngredient {
			for _, v := range f.Values {
				topIngredients = append(topIngredients, fmt.Sprintf("%s(%d)", v.Label, v.Count))
			}
		}
	}
	fmt.Printf("CHECK fig2 facets=%d topIngredients=%v\n", len(fs), topIngredients)
}

// fig5 reproduces Figure 5: the date-range widget with query preview.
func fig5(int, int64) {
	header("E4 / Figure 5 — sent-date range widget on the inbox")
	m := openDataset(context.Background(), "inbox", 0, 0)
	defer m.Close()
	s := m.NewSession()
	apply(s, blackboard.ReplaceQuery{Query: query.NewQuery(query.Or{Ps: []query.Predicate{
		query.TypeIs(inbox.ClassMessage), query.TypeIs(inbox.ClassNewsItem),
	}})})
	h, ok := facets.NumericHistogram(m.Schema(), s.Current().IDs, inbox.PropSent, 24)
	if !ok {
		fmt.Println("CHECK fig5 histogram=MISSING")
		return
	}
	render.Histogram(os.Stdout, "sent", h)
	// Apply a range over the middle third, as a slider drag would.
	span := h.Max - h.Min
	lo, hi := h.Min+span/3, h.Min+2*span/3
	before := s.Current().Len()
	s.ApplyRange(inbox.PropSent, &lo, &hi)
	fmt.Printf("CHECK fig5 buckets=%d before=%d afterRange=%d\n", len(h.Buckets), before, s.Current().Len())
}

// fig6 reproduces Figure 6: inbox navigation with the body composition.
func fig6(int, int64) {
	header("E5 / Figure 6 — inbox navigation with body composition")
	m := openDataset(context.Background(), "inbox", 0, 0)
	defer m.Close()
	s := m.NewSession()
	apply(s, blackboard.ReplaceQuery{Query: query.NewQuery(query.Or{Ps: []query.Predicate{
		query.TypeIs(inbox.ClassMessage), query.TypeIs(inbox.ClassNewsItem),
	}})})
	pane := s.Pane()
	render.Pane(os.Stdout, pane, false)

	// The paper: suggested refining by document type, by composed body
	// attributes, and offered a sent-date range control.
	var typeRefine, bodyComposed, sentRange bool
	for _, sg := range s.Board().Suggestions() {
		switch act := sg.Action.(type) {
		case blackboard.Refine:
			switch p := act.Add.(type) {
			case query.Property:
				if p.Prop == rdf.Type {
					typeRefine = true
				}
			case query.PathProperty:
				if len(p.Path) == 2 && p.Path[0] == inbox.PropBody {
					bodyComposed = true
				}
			}
		case blackboard.ShowRange:
			if act.Prop == inbox.PropSent {
				sentRange = true
			}
		}
	}
	fmt.Printf("CHECK fig6 typeRefine=%v bodyComposed=%v sentRange=%v\n",
		typeRefine, bodyComposed, sentRange)
}

// fig7 reproduces Figure 7: the 50-states dataset as given — raw
// identifiers, and the 'cardinal' word suggestion leading to 7 states.
func fig7(int, int64) {
	header("E6 / Figure 7 — 50 states as given (no annotations)")
	g := statesGraph()
	m := core.Open(g, core.Options{IndexAllSubjects: true})
	s := m.NewSession()
	fs := s.Overview(4)
	render.Overview(os.Stdout, fs, s.Current().Len())

	rawLabels := 0
	for _, f := range fs {
		if !f.Labeled {
			rawLabels++
		}
	}

	// Find and click the 'cardinal' bird-word suggestion.
	cardinal := 0
	for _, sg := range s.Board().Suggestions() {
		if act, ok := sg.Action.(blackboard.Refine); ok {
			if tm, ok := act.Add.(query.TermMatch); ok && tm.Display == "cardinal" {
				apply(s, sg.Action)
				cardinal = s.Current().Len()
				break
			}
		}
	}
	fmt.Printf("CHECK fig7 states=%d rawLabelFacets=%d cardinalStates=%d\n",
		50, rawLabels, cardinal)
}

// fig8 reproduces Figure 8: the same dataset after label + integer
// annotations — readable labels, an area range widget, Alaska the outlier.
func fig8(int, int64) {
	header("E7 / Figure 8 — 50 states with label and value-type annotations")
	g := statesGraph()
	states.Annotate(g)
	m := core.Open(g, core.Options{IndexAllSubjects: true})
	s := m.NewSession()
	fs := s.Overview(4)
	render.Overview(os.Stdout, fs, s.Current().Len())

	var areaRange bool
	for _, sg := range s.Board().Suggestions() {
		if act, ok := sg.Action.(blackboard.ShowRange); ok && act.Prop == states.PropArea {
			areaRange = true
			render.Histogram(os.Stdout, "area", act.Histogram)
		}
	}
	outliers := m.Graph().SubjectsFromIDs(facets.Outliers(m.Schema(), m.ItemIDs(), states.PropArea, 3).Slice())
	names := make([]string, len(outliers))
	for i, o := range outliers {
		if v, ok := m.Graph().Object(o, states.PropName); ok {
			names[i] = v.(rdf.Literal).Lexical
		}
	}
	fmt.Printf("CHECK fig8 areaRange=%v outliers=%v\n", areaRange, names)
}

// factbookExp reproduces the §6.1 factbook claim: shared currency and
// independence-day navigation from a country.
func factbookExp(int, int64) {
	header("E8 — CIA factbook: shared currency / independence day")
	g := factbook.Build(factbook.Config{})
	factbook.Annotate(g)
	m := core.Open(g, core.Options{})
	s := m.NewSession()
	s.OpenItem(factbook.Country(0))
	render.Item(os.Stdout, m.Graph(), factbook.Country(0))
	pane := s.Pane()
	render.Pane(os.Stdout, pane, false)

	var currencyShared, independenceShared bool
	for _, sg := range s.Board().Suggestions() {
		if sg.Group != "Sharing a property" {
			continue
		}
		if rq, ok := sg.Action.(blackboard.ReplaceQuery); ok && len(rq.Query.Terms) == 1 {
			if p, ok := rq.Query.Terms[0].(query.Property); ok {
				switch p.Prop {
				case factbook.PropCurrency:
					currencyShared = true
				case factbook.PropIndependence:
					independenceShared = true
				}
			}
		}
	}
	fmt.Printf("CHECK factbook currencyShared=%v independenceShared=%v\n",
		currencyShared, independenceShared)
}

// coursesExp reproduces the §6.1 OCW/ArtSTOR observation: an
// algorithmically significant but unreadable attribute appears among
// suggestions until hidden by annotation.
func coursesExp(int, int64) {
	header("E8b — course catalog: opaque attribute until hidden")
	countCatKey := func(hide bool) int {
		g := courses.Build(courses.Config{HideCatalogKey: hide})
		m := core.Open(g, core.Options{})
		s := m.NewSession()
		apply(s, blackboard.ReplaceQuery{Query: query.NewQuery(query.TypeIs(courses.ClassCourse))})
		n := 0
		for _, sg := range s.Board().Suggestions() {
			if act, ok := sg.Action.(blackboard.Refine); ok {
				switch p := act.Add.(type) {
				case query.Property:
					if p.Prop == courses.PropCatalogKey {
						n++
					}
				case query.TermMatch:
					if p.Field == string(courses.PropCatalogKey) {
						n++
					}
				}
			}
		}
		return n
	}
	visible := countCatKey(false)
	hidden := countCatKey(true)
	fmt.Printf("CHECK courses catKeySuggestionsVisible=%d afterHideAnnotation=%d\n",
		visible, hidden)

	// Same observation on the ArtSTOR-shaped dataset: the registrar
	// accession code is machine-opaque, and the annotation advisor flags it
	// for hiding with full confidence while leaving the curated columns
	// alone.
	g := artstor.Build(artstor.Config{}).Freeze()
	var hideAccession, falsePositives int
	for _, pr := range annotate.Advise(g, annotate.Config{}) {
		if pr.Kind != annotate.Hide {
			continue
		}
		if pr.Prop == artstor.PropAccession && pr.Confidence >= 0.9 {
			hideAccession++
		} else if pr.Prop != artstor.PropAccession {
			falsePositives++
		}
	}
	fmt.Printf("CHECK artstor hideAccessionProposed=%d hideFalsePositives=%d\n",
		hideAccession, falsePositives)
}

// autoAnnotateExp reproduces the §7 future-work extension (E13): the
// annotation advisor upgrades the raw 50-states CSV to the Figure 8
// interface automatically — no schema expert in the loop.
func autoAnnotateExp(int, int64) {
	header("E13 — automated annotation inference (§7 future work)")
	b := statesGraph()
	g := b.Freeze()
	proposals := annotate.Advise(g, annotate.Config{})
	for _, p := range proposals {
		fmt.Printf("  [%-10s] %s\n", p.Kind, p.Describe(g.Label))
	}
	annotate.Apply(b, proposals)

	m := core.Open(b, core.Options{IndexAllSubjects: true})
	s := m.NewSession()
	var areaRange bool
	for _, sg := range s.Board().Suggestions() {
		if act, ok := sg.Action.(blackboard.ShowRange); ok && act.Prop == states.PropArea {
			areaRange = true
		}
	}
	labeled := 0
	for _, f := range s.Overview(3) {
		if f.Labeled {
			labeled++
		}
	}
	outliers := facets.Outliers(m.Schema(), m.ItemIDs(), states.PropArea, 3)
	fmt.Printf("CHECK autoann proposals=%d areaRange=%v labeledFacets=%d outliers=%d\n",
		len(proposals), areaRange, labeled, outliers.Len())
}
