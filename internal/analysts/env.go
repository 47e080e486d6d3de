// Package analysts implements Magnet's analysts (paper §4.1, §4.3): the
// algorithmic units that, triggered by the currently viewed item or
// collection, write navigation suggestions on the blackboard for the
// advisors to present. The default set covers every advisor the paper
// lists: query refinement over property values and text terms, shared
// properties, similarity by content (item and collection variants),
// similarity by visit, contrary constraints, numeric range widgets,
// within-collection keyword search, and history.
package analysts

import (
	"magnet/internal/blackboard"
	"magnet/internal/history"
	"magnet/internal/index"
	"magnet/internal/query"
	"magnet/internal/rdf"
	"magnet/internal/schema"
	"magnet/internal/vsm"
)

// Env bundles the substrates analysts consult. All fields except Tracker
// and LookupView are required.
type Env struct {
	Graph  *rdf.Graph
	Schema *schema.Store
	Model  *vsm.Model
	Engine *query.Engine
	Text   *index.TextIndex
	// Tracker records visits; nil disables the history-based analysts.
	Tracker *history.Tracker
	// LookupView resolves a history key back to a view so history
	// suggestions can carry executable actions; nil disables them too.
	LookupView func(key string) (blackboard.View, bool)
}

// Label renders a resource using the graph's labels.
func (e *Env) Label(r rdf.IRI) string { return e.Graph.Label(r) }

// Labeler returns the query.Labeler for this environment.
func (e *Env) Labeler() query.Labeler {
	return func(r rdf.IRI) string { return e.Graph.Label(r) }
}

// DefaultSet returns the paper's full analyst complement, ready for
// registration ("the following advisors have been implemented", §4.1).
func DefaultSet(env *Env) []blackboard.Analyst {
	return []blackboard.Analyst{
		NewRefinement(env, 40),
		NewSharedProperty(env, 30),
		NewSimilarItem(env, 20),
		NewSimilarCollection(env, 20),
		NewSimilarByVisit(env, 5),
		NewContrary(env),
		NewRangeWidget(env, 12),
		NewSearchWithin(env),
		NewHistory(env, 5),
		NewDropConstraint(env),
		NewOverviewHint(env),
	}
}

// BaselineSet returns the user study's control system (§6.3): "a baseline
// system consisting of navigation advisors suggesting refinements roughly
// the same as those in the Flamenco system. The baseline system also
// included terms from the text of the documents and allowed users to
// negate the terms by right clicking on them."
//
// Concretely, the baseline keeps faceted refinement (property values and
// text terms), range widgets, keyword search and history — and drops the
// advisors unique to Magnet: similarity by content, shared properties,
// similarity by visit, and contrary constraints. Manual negation stays
// available (it is a query operation, not an advisor).
func BaselineSet(env *Env) []blackboard.Analyst {
	return []blackboard.Analyst{
		NewRefinement(env, 40),
		NewRangeWidget(env, 12),
		NewSearchWithin(env),
		NewHistory(env, 5),
	}
}
