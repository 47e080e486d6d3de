// Command magnet is the interactive navigation interface: a terminal
// rendition of the paper's single-window browser (Figure 1) with the
// navigation pane, keyword toolbar, facet overview, refinement history, and
// numbered suggestion selection.
//
// Usage:
//
//	magnet [-dataset recipes|states|factbook|inbox|courses|inex] [-file data.nt]
//	       [-recipes N] [-baseline] [-seed N]
//
// Commands inside the browser: help, search <kw>, within <kw>, open <n>,
// go <n>, rm <i>, neg <i>, range <prop#> <min> <max>, overview, pane,
// items, back, home, quit.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"magnet/internal/advisors"
	"magnet/internal/analysts"
	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/artstor"
	"magnet/internal/datasets/courses"
	"magnet/internal/datasets/factbook"
	"magnet/internal/datasets/inbox"
	"magnet/internal/datasets/inex"
	"magnet/internal/datasets/recipes"
	"magnet/internal/datasets/states"
	"magnet/internal/qlang"
	"magnet/internal/rdf"
	"magnet/internal/render"
)

func main() {
	dataset := flag.String("dataset", "recipes", "built-in dataset: recipes, states, factbook, inbox, courses, inex")
	file := flag.String("file", "", "load an N-Triples file instead of a built-in dataset")
	nRecipes := flag.Int("recipes", 2000, "recipe corpus size for -dataset recipes")
	seed := flag.Int64("seed", 1, "dataset seed")
	useBaseline := flag.Bool("baseline", false, "use the Flamenco-like baseline advisor set")
	annotate := flag.Bool("annotate", true, "apply schema annotations where the dataset has them")
	flag.Parse()

	g, allSubjects, err := load(*dataset, *file, *nRecipes, *seed, *annotate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "magnet: %v\n", err)
		os.Exit(1)
	}

	opts := core.Options{IndexAllSubjects: allSubjects}
	if *useBaseline {
		opts.Analysts = analysts.BaselineSet
	}
	m := core.Open(g, opts)
	s := m.NewSession()

	fmt.Printf("Magnet — %d items indexed. Type 'help' for commands.\n\n", len(m.Items()))
	repl(m, s)
}

func load(dataset, file string, nRecipes int, seed int64, annotate bool) (*rdf.Builder, bool, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, false, err
		}
		defer f.Close()
		g, err := rdf.ReadNTriples(f)
		if err != nil {
			return nil, false, err
		}
		// core.Open falls back to all subjects automatically when the file
		// carries no rdf:type triples.
		return g, false, nil
	}
	switch dataset {
	case "recipes":
		return recipes.Build(recipes.Config{Recipes: nRecipes, Seed: seed, SkipAnnotations: !annotate}), false, nil
	case "states":
		g, err := states.Build()
		if err != nil {
			return nil, false, err
		}
		if annotate {
			states.Annotate(g)
		}
		return g, true, nil
	case "factbook":
		g := factbook.Build(factbook.Config{Seed: seed})
		if annotate {
			factbook.Annotate(g)
		}
		return g, false, nil
	case "inbox":
		return inbox.Build(inbox.Config{Seed: seed}), false, nil
	case "artstor":
		return artstor.Build(artstor.Config{HideAccession: true}), false, nil
	case "courses":
		return courses.Build(courses.Config{Seed: seed, HideCatalogKey: annotate}), false, nil
	case "inex":
		c, err := inex.Build(inex.Config{Seed: seed})
		if err != nil {
			return nil, false, err
		}
		return c.Graph, false, nil
	default:
		return nil, false, fmt.Errorf("unknown dataset %q", dataset)
	}
}

const helpText = `Commands:
  search <keywords>    start a fresh keyword search (the toolbar)
  q <expr>             structured query, e.g. cuisine = Greek AND NOT
                       ingredient.group = Nuts AND servings >= 4
  within <keywords>    refine the current collection by keywords
  pane                 show the navigation pane (suggestions are numbered)
  go <n>               follow pane suggestion n
  ex <n>               apply refine-suggestion n as an exclusion (NOT)
  or <n>               apply refine-suggestion n as an expansion (OR)
  open <n>             open the n-th listed item
  items                list the current collection
  overview             large-collection facet overview (Figure 2)
  rm <i>               remove query constraint i
  neg <i>              negate query constraint i
  range <n> <lo> <hi>  apply range widget from pane suggestion n
  compound or|and      start a compound refinement (§3.3)
  drag <n>             drag refine-suggestion n into the compound
  capply [not]         apply the compound (optionally as exclusion)
  ccancel              abandon the compound
  why <n>              explain why listed item n is similar to the last
                       opened item (top shared coordinates)
  back                 undo the last refinement
  home                 all items
  help                 this text
  quit                 exit`

func repl(m *core.Magnet, s *core.Session) {
	in := bufio.NewScanner(os.Stdin)
	var lastItem rdf.IRI
	showPane(m, s)
	for {
		fmt.Print("\nmagnet> ")
		if !in.Scan() {
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		cmd, arg, _ := strings.Cut(line, " ")
		arg = strings.TrimSpace(arg)
		switch cmd {
		case "quit", "exit":
			return
		case "help":
			fmt.Println(helpText)
		case "search":
			s.Search(arg)
			showPane(m, s)
		case "q":
			res := qlang.NewResolver(m.Graph(), m.Schema())
			parsed, err := qlang.Parse(arg, res)
			if err != nil {
				fmt.Println(err)
				continue
			}
			if err := s.Apply(blackboard.ReplaceQuery{Query: parsed}); err != nil {
				fmt.Println(err)
				continue
			}
			showPane(m, s)
		case "within":
			s.SearchWithin(arg)
			showPane(m, s)
		case "pane":
			showPane(m, s)
		case "items":
			render.Collection(os.Stdout, m.Graph(), s.Items(), 25)
		case "overview":
			render.Overview(os.Stdout, s.Overview(6), len(s.Items()))
		case "open":
			if it, ok := nthItem(s, arg); ok {
				lastItem = it
				s.OpenItem(it)
				render.Item(os.Stdout, m.Graph(), it)
				showPane(m, s)
			}
		case "why":
			if lastItem == "" {
				fmt.Println("open an item first")
				continue
			}
			if it, ok := nthItem(s, arg); ok {
				explainSimilarity(m, lastItem, it)
			}
		case "go", "ex", "or":
			applySuggestion(m, s, cmd, arg)
		case "rm":
			if i, err := strconv.Atoi(arg); err == nil {
				s.RemoveConstraint(i)
				showPane(m, s)
			}
		case "neg":
			if i, err := strconv.Atoi(arg); err == nil {
				s.NegateConstraint(i)
				showPane(m, s)
			}
		case "range":
			applyRange(m, s, arg)
		case "compound":
			switch arg {
			case "or":
				s.BeginCompound(core.CompoundOr)
				fmt.Println("building OR compound; use 'drag <n>' then 'capply'")
			case "and":
				s.BeginCompound(core.CompoundAnd)
				fmt.Println("building AND compound; use 'drag <n>' then 'capply'")
			default:
				fmt.Println("usage: compound or|and")
			}
		case "drag":
			dragSuggestion(m, s, arg)
		case "capply":
			mode := blackboard.Filter
			if arg == "not" {
				mode = blackboard.Exclude
			}
			if err := s.ApplyCompound(mode); err != nil {
				fmt.Println(err)
			} else {
				showPane(m, s)
			}
		case "ccancel":
			s.CancelCompound()
			fmt.Println("compound abandoned")
		case "back":
			if s.Back() {
				showPane(m, s)
			} else {
				fmt.Println("nothing to undo")
			}
		case "home":
			s.GoHome()
			showPane(m, s)
		default:
			fmt.Printf("unknown command %q (try 'help')\n", cmd)
		}
	}
}

func showPane(m *core.Magnet, s *core.Session) {
	fmt.Println()
	render.Collection(os.Stdout, m.Graph(), s.Items(), 10)
	fmt.Println()
	render.Pane(os.Stdout, s.Pane(), true)
}

func nthItem(s *core.Session, arg string) (rdf.IRI, bool) {
	n, err := strconv.Atoi(arg)
	items := s.Items()
	if err != nil || n < 1 || n > len(items) {
		fmt.Printf("open: need an item number 1..%d\n", len(items))
		return "", false
	}
	return items[n-1], true
}

func nthSuggestion(p advisors.Pane, arg string) (blackboard.Suggestion, bool) {
	n, err := strconv.Atoi(arg)
	all := p.AllSuggestions()
	if err != nil || n < 1 || n > len(all) {
		fmt.Printf("need a suggestion number 1..%d\n", len(all))
		return blackboard.Suggestion{}, false
	}
	return all[n-1], true
}

func applySuggestion(m *core.Magnet, s *core.Session, cmd, arg string) {
	sg, ok := nthSuggestion(s.Pane(), arg)
	if !ok {
		return
	}
	action := sg.Action
	if r, isRefine := action.(blackboard.Refine); isRefine {
		switch cmd {
		case "ex":
			r.Mode = blackboard.Exclude
		case "or":
			r.Mode = blackboard.Expand
		}
		action = r
	} else if cmd != "go" {
		fmt.Println("ex/or apply only to refinement suggestions")
		return
	}
	switch act := action.(type) {
	case blackboard.ShowRange:
		render.Histogram(os.Stdout, m.Label(act.Prop), act.Histogram)
		fmt.Printf("use: range %s <lo> <hi>\n", arg)
	case blackboard.ShowSearch:
		fmt.Println("use: within <keywords>")
	case blackboard.ShowOverview:
		render.Overview(os.Stdout, s.Overview(6), len(s.Items()))
	default:
		if err := s.Apply(action); err != nil {
			fmt.Println(err)
			return
		}
		showPane(m, s)
	}
}

func explainSimilarity(m *core.Magnet, a, b rdf.IRI) {
	fmt.Printf("why %q resembles %q (similarity %.3f):\n",
		m.Label(b), m.Label(a), m.Model().Similarity(a, b))
	expl := m.Model().ExplainSimilarity(a, b, 8)
	lines := m.ExplainSimilarityText(a, b, 8)
	if len(lines) == 0 {
		fmt.Println("  nothing in common")
		return
	}
	for i, line := range lines {
		fmt.Printf("  %.4f  %s\n", expl[i].Weight, line)
	}
}

func dragSuggestion(m *core.Magnet, s *core.Session, arg string) {
	sg, ok := nthSuggestion(s.Pane(), arg)
	if !ok {
		return
	}
	r, isRefine := sg.Action.(blackboard.Refine)
	if !isRefine {
		fmt.Println("only refinement suggestions can be dragged into a compound")
		return
	}
	if err := s.AddToCompound(r.Add); err != nil {
		fmt.Println(err)
		return
	}
	_, preds, _ := s.Compound()
	fmt.Printf("compound now holds %d constraint(s)\n", len(preds))
}

func applyRange(m *core.Magnet, s *core.Session, arg string) {
	fields := strings.Fields(arg)
	if len(fields) != 3 {
		fmt.Println("usage: range <suggestion#> <lo> <hi>")
		return
	}
	sg, ok := nthSuggestion(s.Pane(), fields[0])
	if !ok {
		return
	}
	act, isRange := sg.Action.(blackboard.ShowRange)
	if !isRange {
		fmt.Println("that suggestion is not a range widget")
		return
	}
	lo, err1 := strconv.ParseFloat(fields[1], 64)
	hi, err2 := strconv.ParseFloat(fields[2], 64)
	if err1 != nil || err2 != nil {
		fmt.Println("range bounds must be numbers")
		return
	}
	s.ApplyRange(act.Prop, &lo, &hi)
	showPane(m, s)
}
