package analysts

import (
	"fmt"

	"magnet/internal/blackboard"
)

// History is the History advisor's analyst (§4.1): "Previous" suggestions
// for recently seen views, and "Refinement" suggestions that undo steps of
// the refinement trail.
type History struct {
	env *Env
	k   int
}

// NewHistory returns the analyst suggesting at most k of each kind.
func NewHistory(env *Env, k int) *History { return &History{env: env, k: k} }

// Name implements blackboard.Analyst.
func (*History) Name() string { return "history" }

// Triggered implements blackboard.Analyst.
func (h *History) Triggered(blackboard.View) bool {
	return h.env.Tracker != nil && h.env.LookupView != nil
}

// Suggest implements blackboard.Analyst.
func (h *History) Suggest(v blackboard.View, b *blackboard.Board) {
	// Previous: most recently seen distinct views, weighted by recency.
	recent := h.env.Tracker.Recent(h.k)
	for i, key := range recent {
		dest, ok := h.env.LookupView(key)
		if !ok {
			continue
		}
		title, action := describeDestination(h.env, dest)
		b.Post(blackboard.Suggestion{
			Advisor: blackboard.AdvisorHistory,
			Group:   "Previous",
			Title:   title,
			Weight:  1 - float64(i)/float64(len(recent)+1),
			Action:  action,
			Key:     "prev:" + key,
			Analyst: h.Name(),
		})
	}

	// Refinement trail: undo steps, most recent first.
	trail := h.env.Tracker.Trail()
	posted := 0
	for i := len(trail) - 2; i >= 0 && posted < h.k; i-- {
		q := trail[i]
		title := describeQuery(h.env, q)
		b.Post(blackboard.Suggestion{
			Advisor: blackboard.AdvisorHistory,
			Group:   "Refinement",
			Title:   fmt.Sprintf("back to: %s", title),
			Weight:  1 - float64(posted)/float64(len(trail)+1),
			Action:  blackboard.ReplaceQuery{Query: q},
			Key:     "trail:" + q.Key(),
			Analyst: h.Name(),
		})
		posted++
	}
}
