package analysts

import (
	"magnet/internal/blackboard"
)

// DropConstraint rescues empty result sets: §6.3.1 found that "users find
// it difficult to work with zero results", typically after stacking
// contradictory constraints. When the collection is empty, this analyst
// suggests removing each constraint, most recent first (the most recent
// addition is the likeliest culprit).
type DropConstraint struct {
	env *Env
}

// NewDropConstraint returns the analyst.
func NewDropConstraint(env *Env) *DropConstraint { return &DropConstraint{env: env} }

// Name implements blackboard.Analyst.
func (*DropConstraint) Name() string { return "drop-constraint" }

// Triggered implements blackboard.Analyst: empty constrained collections.
func (*DropConstraint) Triggered(v blackboard.View) bool {
	return v.IsCollection() && v.Len() == 0 && !v.Query.IsEmpty()
}

// Suggest implements blackboard.Analyst.
func (d *DropConstraint) Suggest(v blackboard.View, b *blackboard.Board) {
	l := d.env.Labeler()
	n := len(v.Query.Terms)
	for i := n - 1; i >= 0; i-- {
		without := v.Query.Without(i)
		b.Post(blackboard.Suggestion{
			Advisor: blackboard.AdvisorModify,
			Group:   "No results — drop a constraint",
			Title:   "drop: " + v.Query.Terms[i].Describe(l),
			Weight:  float64(i+1) / float64(n),
			Action:  blackboard.ReplaceQuery{Query: without},
			Key:     "drop:" + without.Key(),
			Analyst: d.Name(),
		})
	}
}

// overviewThreshold is the refine-suggestion count beyond which the pane is
// considered inadequate and the Figure 2 overview is suggested.
const overviewThreshold = 12

// OverviewHint is a Reactor — an analyst "triggered by results from other
// analysts" (§4.3). After the primary round it counts the posted Refine
// Collections suggestions; when the pane is crowded it recommends the
// specialized large-collection overview interface (§3.1: "Users arriving at
// large collections, were the navigation pane is inadequate, can use a
// specialized interface in the main pane (shown in Figure 2)").
type OverviewHint struct {
	env *Env
}

// NewOverviewHint returns the reactor.
func NewOverviewHint(env *Env) *OverviewHint { return &OverviewHint{env: env} }

// Name implements blackboard.Analyst.
func (*OverviewHint) Name() string { return "overview-hint" }

// Triggered implements blackboard.Analyst.
func (*OverviewHint) Triggered(v blackboard.View) bool {
	return v.IsCollection() && v.Len() >= 2
}

// Suggest implements blackboard.Analyst: the primary round posts nothing —
// this analyst only reacts.
func (*OverviewHint) Suggest(blackboard.View, *blackboard.Board) {}

// React implements blackboard.Reactor.
func (o *OverviewHint) React(v blackboard.View, posted []blackboard.Suggestion, b *blackboard.Board) {
	refines := 0
	for _, s := range posted {
		if s.Advisor == blackboard.AdvisorRefine {
			refines++
		}
	}
	if refines < overviewThreshold {
		return
	}
	b.Post(blackboard.Suggestion{
		Advisor: blackboard.AdvisorQuery,
		Group:   "Query",
		Title:   "Browse the full metadata overview",
		Detail:  "many refinement axes available",
		Weight:  0.9,
		Action:  blackboard.ShowOverview{},
		Key:     "overview-hint",
		Analyst: o.Name(),
	})
}
