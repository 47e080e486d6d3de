// Package baseline assembles the user study's control system (paper §6.3):
// "a baseline system consisting of navigation advisors suggesting
// refinements roughly the same as those in the Flamenco system. The
// baseline system also included terms from the text of the documents and
// allowed users to negate the terms by right clicking on them."
//
// Concretely, the baseline keeps faceted refinement (property values and
// text terms), range widgets, keyword search and history — and drops the
// advisors unique to Magnet: similarity by content, similarity by visit,
// and contrary constraints. Manual negation stays available (it is a query
// operation, not an advisor).
package baseline

import (
	"magnet/internal/analysts"
	"magnet/internal/core"
	"magnet/internal/rdf"
)

// Open builds a Magnet instance configured as the study's baseline system.
func Open(g *rdf.Builder, opts core.Options) *core.Magnet {
	opts.Analysts = analysts.BaselineSet
	return core.Open(g, opts)
}

// OpenComplete builds the complete system with identical options, for
// side-by-side comparisons.
func OpenComplete(g *rdf.Builder, opts core.Options) *core.Magnet {
	opts.Analysts = analysts.DefaultSet
	return core.Open(g, opts)
}
