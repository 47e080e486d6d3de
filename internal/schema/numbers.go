package schema

import (
	"magnet/internal/itemset"
	"magnet/internal/obs"
	"magnet/internal/rdf"
)

// numbersCompiled counts first-numeric columns compiled: at most one per
// predicate per Store, however many panes read it (tests pin it exactly).
var numbersCompiled = obs.NewCounter("schema.numbers.compile.count")

// Numbers is one predicate's first-numeric column: each subject's first
// parseable numeric value by key, the value Objects lists first among
// those Literal.Float accepts. Range previews and outlier detection read
// it (facets.NumericHistogram, facets.Outliers); a range query does not,
// since it matches an item by any of its values.
//
// rank is indexed by subject ID: 0 means no parseable numeric value,
// otherwise rank-1 indexes vals. vals holds the values that are some
// subject's first, in key order, so ascending rank is ascending key.
type Numbers struct {
	rank []uint32
	vals []float64
}

// noNumbers is the column of a predicate absent from the graph.
var noNumbers Numbers

// Rank returns 1 + the index in Values of id's first numeric value, or 0
// when id has none (IDs past the subject table have none).
//
//magnet:hot
func (n *Numbers) Rank(id uint32) uint32 {
	if int(id) >= len(n.rank) {
		return 0
	}
	return n.rank[id]
}

// Value returns id's first numeric value, and whether it has one.
//
//magnet:hot
func (n *Numbers) Value(id uint32) (float64, bool) {
	r := n.Rank(id)
	if r == 0 {
		return 0, false
	}
	return n.vals[r-1], true
}

// Values returns the distinct first values in key order; rank r reads
// Values()[r-1]. Callers must not modify it.
func (n *Numbers) Values() []float64 { return n.vals }

// Numbers returns p's first-numeric column, compiled on the first call for
// p and shared by every later one. It reads no value type: a predicate
// whose numbers are plain strings (unannotated CSV imports, Figure 7) has
// a column too. A predicate absent from the graph has an empty one.
func (s *Store) Numbers(p rdf.IRI) *Numbers {
	sl := s.slot(p)
	if sl == nil {
		return &noNumbers
	}
	sl.numsOnce.Do(func() { sl.nums = compileNumbers(s.g, p) })
	return &sl.nums
}

// compileNumbers walks p's value postings once, in key order, and gives
// each subject the first parseable numeric value that reaches it. Posting
// IDs past the subject table (a damaged image) are skipped, as Range
// queries skip them.
func compileNumbers(g *rdf.Graph, p rdf.IRI) Numbers {
	numbersCompiled.Inc()
	rank := make([]uint32, g.SubjectTable().Len())
	var vals []float64
	g.ForEachValuePosting(p, func(o rdf.Term, subjects itemset.Set) bool {
		lit, ok := o.(rdf.Literal)
		if !ok {
			return true
		}
		v, ok := lit.Float()
		if !ok {
			return true
		}
		if claim(rank, subjects.Slice(), uint32(len(vals))+1) {
			vals = append(vals, v)
		}
		return true
	})
	if len(vals) == 0 {
		return Numbers{}
	}
	return Numbers{rank: rank, vals: vals}
}

// claim gives rank r to every subject in posting that has none yet, and
// reports whether any took it.
//
//magnet:hot
func claim(rank, posting []uint32, r uint32) bool {
	took := false
	for _, id := range posting {
		if int(id) < len(rank) && rank[id] == 0 {
			rank[id], took = r, true
		}
	}
	return took
}
