package core

import (
	"math"
	"sort"

	"magnet/internal/query"
	"magnet/internal/rdf"
	"magnet/internal/vsm"
)

// Result ordering implements the extension the paper's §6.2 identifies as
// missing: "the only weakness with Magnet compared to other systems was the
// absence of document reordering, for example ... biasing results to favor
// large documents can improve such queries since the results are otherwise
// swamped by significant numbers of small documents."
//
// RankedItems orders the current collection by relevance to the query's
// text constraints (keyword and term predicates scored through the external
// index), optionally biased toward larger documents (Kamps et al.'s
// observation). Items without text scores keep a stable tail order, so
// ranking is a reordering, never a filter.

// RankOptions tunes RankedItems.
type RankOptions struct {
	// LengthBias ∈ [0, 1] mixes in a log-scaled document-length prior
	// (0 = pure relevance, the default).
	LengthBias float64
}

// RankedItems returns the current collection reordered by relevance to the
// query's text constraints. For queries without text constraints the items
// are returned in their stable order (with the length prior still applied
// when requested).
func (s *Session) RankedItems(opts RankOptions) []rdf.IRI { //magnet-vet:ignore deadcode // §6.2 reordering (DESIGN.md E15), a library feature no binary serves
	items := s.Items()
	if len(items) < 2 {
		return items
	}
	scores := make(map[rdf.IRI]float64, len(items))
	s.textScores(s.current.Query.Terms, scores)

	if opts.LengthBias > 0 {
		maxLen := 0.0
		lengths := make(map[rdf.IRI]float64, len(items))
		for _, it := range items {
			l := float64(s.docLength(it))
			lengths[it] = l
			if l > maxLen {
				maxLen = l
			}
		}
		if maxLen > 0 {
			for _, it := range items {
				scores[it] += opts.LengthBias * math.Log1p(lengths[it]) / math.Log1p(maxLen)
			}
		}
	}

	ranked := make([]rdf.IRI, len(items))
	copy(ranked, items)
	sort.SliceStable(ranked, func(i, j int) bool {
		si, sj := scores[ranked[i]], scores[ranked[j]]
		if !vsm.ApproxEqual(si, sj) {
			return si > sj
		}
		return ranked[i] < ranked[j]
	})
	return ranked
}

// textScores accumulates per-item text relevance from every text-bearing
// predicate in the term list, recursing through boolean combinators.
func (s *Session) textScores(terms []query.Predicate, scores map[rdf.IRI]float64) {
	if s.m.text == nil {
		return
	}
	for _, t := range terms {
		switch p := t.(type) {
		case query.Keyword:
			for _, hit := range s.m.text.Search(p.Text, p.Field, 0) {
				scores[rdf.IRI(hit.ID)] += hit.Score
			}
		case query.TermMatch:
			for _, id := range s.m.text.MatchingTerm(p.Term, p.Field) {
				scores[rdf.IRI(id)]++
			}
		case query.And:
			s.textScores(p.Ps, scores)
		case query.Or:
			s.textScores(p.Ps, scores)
		case query.Not:
			// Negated text contributes nothing positive.
		}
	}
}

// docLength approximates document size as total indexed tokens across
// fields.
func (s *Session) docLength(it rdf.IRI) int {
	if s.m.text == nil {
		return 0
	}
	total := 0
	for _, f := range s.m.text.Fields(string(it)) {
		for _, c := range s.m.text.FieldTermCounts(string(it), f) {
			total += c
		}
	}
	return total
}
