package core

import (
	"sort"

	"magnet/internal/blackboard"
	"magnet/internal/itemset"
	"magnet/internal/query"
	"magnet/internal/rdf"
)

// Soft empty-result handling implements the paper's §6.3.1 observation as a
// feature: "since users find it difficult to work with zero results, it may
// be worth modifying the queries to perform more fuzzily in the case when
// zero results would have been returned otherwise."
//
// When enabled (Options.SoftEmptyResults) and a refinement empties the
// collection, the session falls back to a fuzzy ranking instead: the items
// matching the failed predicate *anywhere in the corpus* define a concept
// centroid (what "anchovy recipes" look like), and the pre-refinement
// collection is ranked against it — descending for a failed Filter (closest
// to the concept), ascending for a failed Exclude (least like the concept).
// The result is a fixed "closest matches" collection the user can keep
// browsing, never a dead end.

// softLimit bounds the fuzzy fallback collection size.
const softLimit = 10

// softRefine attempts the fuzzy fallback. prev is the collection before the
// refinement. It reports whether a fallback view was produced.
func (s *Session) softRefine(p query.Predicate, mode blackboard.RefineMode, prev itemset.Set) bool {
	if prev.IsEmpty() {
		return false
	}
	concept := p.Eval(s.m.eng).IDs()
	if concept.IsEmpty() {
		// The predicate matches nothing anywhere; there is no concept to be
		// fuzzy about.
		return false
	}
	centroid := s.m.model.Centroid(concept)
	if len(centroid) == 0 {
		return false
	}

	type scored struct {
		id    uint32
		score float64
	}
	ranked := make([]scored, 0, prev.Len())
	for i, score := range s.m.model.Scores(centroid, prev) {
		ranked = append(ranked, scored{prev.Slice()[i], score})
	}
	asc := mode == blackboard.Exclude
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := ranked[i].score, ranked[j].score
		if si != sj {
			if asc {
				return si < sj
			}
			return si > sj
		}
		return ranked[i].id < ranked[j].id // IDs ascend with the IRIs
	})

	n := softLimit
	if n > len(ranked) {
		n = len(ranked)
	}
	items := make([]rdf.IRI, n)
	for i := 0; i < n; i++ {
		items[i] = s.m.g.SubjectByID(ranked[i].id)
	}
	name := "closest matches · " + describeMode(mode) + " " + p.Describe(s.m.Labeler())
	s.goTo(s.fixedView(name, items))
	return true
}

func describeMode(mode blackboard.RefineMode) string {
	switch mode {
	case blackboard.Exclude:
		return "without"
	case blackboard.Expand:
		return "or"
	default:
		return "with"
	}
}
