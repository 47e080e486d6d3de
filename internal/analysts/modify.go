package analysts

import (
	"magnet/internal/blackboard"
	"magnet/internal/facets"
)

// Contrary is the Contrary Constraints analyst (§4.1): for a collection
// reached by a query, it suggests collections with "one of the current
// collection constraints inverted", helping "users get an overview of other
// related information that is available". In the user study this advisor
// rescued subjects stuck on negation ("the contrary advisor would suggest
// negation to get them started", §6.3.1).
type Contrary struct {
	env *Env
}

// NewContrary returns the analyst.
func NewContrary(env *Env) *Contrary { return &Contrary{env: env} }

// Name implements blackboard.Analyst.
func (*Contrary) Name() string { return "contrary-constraints" }

// Triggered implements blackboard.Analyst: needs a constrained collection.
func (*Contrary) Triggered(v blackboard.View) bool {
	return v.IsCollection() && !v.Query.IsEmpty()
}

// Suggest implements blackboard.Analyst.
func (c *Contrary) Suggest(v blackboard.View, b *blackboard.Board) {
	l := c.env.Labeler()
	n := len(v.Query.Terms)
	for i := range v.Query.Terms {
		negated := v.Query.Negate(i)
		// Later-added constraints are likelier negation targets (the
		// user's most recent focus), so weight increases with position.
		weight := float64(i+1) / float64(n)
		b.Post(blackboard.Suggestion{
			Advisor: blackboard.AdvisorModify,
			Group:   "Contrary constraints",
			Title:   negated.Terms[i].Describe(l),
			Weight:  weight,
			Action:  blackboard.ReplaceQuery{Query: negated},
			Key:     "contrary:" + negated.Key(),
			Analyst: c.Name(),
		})
	}
}

// RangeWidget is the continuous-valued refinement analyst (§4.3, §5.4): for
// each numeric attribute of the collection it offers a range-selection
// control with a query-preview histogram (Figure 5's sliders and hatch
// marks).
type RangeWidget struct {
	env     *Env
	buckets int
}

// NewRangeWidget returns the analyst building histograms with the given
// bucket count.
func NewRangeWidget(env *Env, buckets int) *RangeWidget {
	return &RangeWidget{env: env, buckets: buckets}
}

// Name implements blackboard.Analyst.
func (*RangeWidget) Name() string { return "numeric-range" }

// Triggered implements blackboard.Analyst.
func (*RangeWidget) Triggered(v blackboard.View) bool {
	return v.IsCollection() && len(v.Collection) >= 2
}

// Suggest implements blackboard.Analyst.
func (r *RangeWidget) Suggest(v blackboard.View, b *blackboard.Board) {
	n := len(v.Collection)
	for _, p := range r.env.Schema.NumericProperties() {
		h, ok := facets.NumericHistogram(r.env.Graph, v.IDs, p, r.buckets)
		if !ok {
			continue
		}
		b.Post(blackboard.Suggestion{
			Advisor: blackboard.AdvisorRefine,
			Group:   r.env.Label(p),
			Title:   "refine by range of " + r.env.Label(p),
			Detail:  "range widget",
			Weight:  float64(h.Count) / float64(n),
			Action:  blackboard.ShowRange{Prop: p, Histogram: h},
			Key:     "range:" + string(p),
			Analyst: r.Name(),
		})
	}
}

// SearchWithin posts the within-collection keyword search affordance shown
// under 'Query' in the navigation pane (§4.3: "Other analysts provide
// support for keyword search within the collection").
type SearchWithin struct {
	env *Env
}

// NewSearchWithin returns the analyst.
func NewSearchWithin(env *Env) *SearchWithin { return &SearchWithin{env: env} }

// Name implements blackboard.Analyst.
func (*SearchWithin) Name() string { return "search-within" }

// Triggered implements blackboard.Analyst.
func (s *SearchWithin) Triggered(v blackboard.View) bool {
	return v.IsCollection() && len(v.Collection) > 0 && s.env.Text != nil
}

// Suggest implements blackboard.Analyst.
func (s *SearchWithin) Suggest(v blackboard.View, b *blackboard.Board) {
	b.Post(blackboard.Suggestion{
		Advisor: blackboard.AdvisorQuery,
		Group:   "Query",
		Title:   "Search within this collection",
		Weight:  1,
		Action:  blackboard.ShowSearch{},
		Key:     "search-within",
		Analyst: s.Name(),
	})
}
