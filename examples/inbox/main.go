// Inbox example: the paper's Figure 6 — navigating an e-mail inbox that
// mixes messages with subscription news items, with the body-composition
// annotation surfacing second-level attributes and a date-range widget over
// sent dates (Figure 5). Run:
//
//	go run ./examples/inbox
package main

import (
	"fmt"
	"os"
	"time"

	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/inbox"
	"magnet/internal/query"
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
	g := inbox.Build(inbox.Config{})
	m := core.Open(g, core.Options{})
	s := m.NewSession()

	// View the whole inbox: both document types.
	apply(s, blackboard.ReplaceQuery{Query: query.NewQuery(query.Or{Ps: []query.Predicate{
		query.TypeIs(inbox.ClassMessage),
		query.TypeIs(inbox.ClassNewsItem),
	}})})
	fmt.Println("=== Inbox (Figure 6) ===")
	render.Collection(os.Stdout, m.Graph(), s.Items(), 8)
	fmt.Println()
	render.Pane(os.Stdout, s.Pane(), false)

	// The range widget over sent dates (Figure 5): show the histogram, then
	// select July 2003.
	for _, sg := range s.Board().Suggestions() {
		if act, ok := sg.Action.(blackboard.ShowRange); ok && act.Prop == inbox.PropSent {
			fmt.Println("\n=== Sent-date range widget (Figure 5) ===")
			render.Histogram(os.Stdout, "sent", act.Histogram)
		}
	}
	july := time.Date(2003, 7, 1, 0, 0, 0, 0, time.UTC)
	august := time.Date(2003, 8, 1, 0, 0, 0, 0, time.UTC)
	before := len(s.Items())
	lo, hi := float64(july.Unix()), float64(august.Unix())
	s.ApplyRange(inbox.PropSent, &lo, &hi)
	fmt.Printf("\nJuly 2003 selection: %d → %d messages\n", before, len(s.Items()))

	// Keyword refinement within the window.
	s.SearchWithin("seminar")
	fmt.Printf("... mentioning 'seminar': %d\n", len(s.Items()))
	render.Collection(os.Stdout, m.Graph(), s.Items(), 5)

	// Open one message and look at its composed body attributes.
	if items := s.Items(); len(items) > 0 {
		fmt.Println()
		render.Item(os.Stdout, m.Graph(), items[0])
	}
}
