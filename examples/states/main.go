// States example: the paper's Figure 7 → Figure 8 annotation story on the
// real 50-states data. As imported from CSV the dataset has raw identifiers
// and stringly values; Magnet still finds the 'cardinal' pattern. Adding a
// label and an integer value-type annotation upgrades the interface: labels
// everywhere and a range widget exposing Alaska as the area outlier. Run:
//
//	go run ./examples/states
package main

import (
	"fmt"
	"os"

	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/states"
	"magnet/internal/facets"
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
	// --- As given (Figure 7): no labels, everything a string. ---
	g, err := states.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "states: %v\n", err)
		os.Exit(1)
	}
	m := core.Open(g, core.Options{IndexAllSubjects: true})
	s := m.NewSession()

	fmt.Println("=== Figure 7: the CSV as given ===")
	render.Overview(os.Stdout, s.Overview(3), s.Current().Len())

	// Click the 'cardinal' word suggestion Magnet surfaces.
	for _, sg := range s.Board().Suggestions() {
		if act, ok := sg.Action.(blackboard.Refine); ok {
			if tm, ok := act.Add.(query.TermMatch); ok && tm.Display == "cardinal" {
				apply(s, sg.Action)
				break
			}
		}
	}
	fmt.Printf("\nStates with 'cardinal' in their bird names: %d\n", s.Current().Len())
	render.Collection(os.Stdout, m.Graph(), s.Items(), 10)

	// --- Annotated (Figure 8). ---
	states.Annotate(g)
	m = core.Open(g, core.Options{IndexAllSubjects: true})
	s = m.NewSession()

	fmt.Println("\n=== Figure 8: after label + integer annotations ===")
	render.Overview(os.Stdout, s.Overview(3), s.Current().Len())

	for _, sg := range s.Board().Suggestions() {
		if act, ok := sg.Action.(blackboard.ShowRange); ok && act.Prop == states.PropArea {
			fmt.Println()
			render.Histogram(os.Stdout, "Area (sq mi)", act.Histogram)
		}
	}
	outliers := facets.Outliers(m.Schema(), m.ItemIDs(), states.PropArea, 3)
	for _, o := range m.Graph().SubjectsFromIDs(outliers.Slice()) {
		name, _ := m.Graph().Object(o, states.PropName)
		fmt.Printf("area outlier: %s\n", name.(rdf.Literal).Lexical)
	}

	// Range query: the big western states.
	lo := 100000.0
	s.ApplyRange(states.PropArea, &lo, nil)
	fmt.Printf("\nStates over 100,000 sq mi: %d\n", s.Current().Len())
	render.Collection(os.Stdout, m.Graph(), s.Items(), 10)
}
