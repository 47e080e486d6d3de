package analysts

import (
	"fmt"

	"magnet/internal/blackboard"
	"magnet/internal/itemset"
	"magnet/internal/query"
	"magnet/internal/rdf"
	"magnet/internal/vsm"
)

// Refinement is the Refine Collections analyst (§4.1): it applies the
// paper's §5.3 query-refinement technique — "picking terms in the average
// document having the largest normalized term weights" — to suggest
// property/value constraints and text-term constraints for the current
// collection. Suggestions are grouped by property so the interface can
// display "the first few values to give the user appropriate context".
type Refinement struct {
	env *Env
	// k bounds how many centroid coordinates are considered.
	k int
}

// NewRefinement returns the analyst considering the top k centroid terms.
func NewRefinement(env *Env, k int) *Refinement {
	return &Refinement{env: env, k: k}
}

// Name implements blackboard.Analyst.
func (*Refinement) Name() string { return "query-refinement" }

// Triggered implements blackboard.Analyst: fires on non-trivial collections.
func (*Refinement) Triggered(v blackboard.View) bool {
	return v.IsCollection() && len(v.Collection) >= 2
}

// Suggest implements blackboard.Analyst.
func (r *Refinement) Suggest(v blackboard.View, b *blackboard.Board) {
	coords := r.env.Model.RefinementCoords(v.Collection, r.k, nil)
	if len(coords) == 0 {
		return
	}
	n := len(v.Collection)
	maxW := coords[0].Weight

	for _, wc := range coords {
		c := wc.Coord
		weight := wc.Weight / maxW
		switch c.Kind {
		case vsm.CoordObject:
			r.suggestObject(b, c, weight, v.IDs, n)
		case vsm.CoordWord:
			r.suggestWord(b, c, weight)
		}
	}
}

// suggestObject posts one attribute/value refinement with its "n of N"
// detail: the coordinate's posting intersected with the collection.
func (r *Refinement) suggestObject(b *blackboard.Board, c vsm.Coord, weight float64, coll itemset.Set, n int) {
	var pred query.Predicate
	var cnt int
	if len(c.Path) == 1 {
		pred = query.Property{Prop: c.Path[0], Value: c.Value}
		cnt = postingCount(r.env.Graph, c.Path[0], c.Value, coll)
	} else {
		pp := query.PathProperty{Path: c.Path, Value: c.Value}
		pred = pp
		// Composed coordinates have no single posting; evaluate the path.
		cnt = pp.Eval(r.env.Engine).IDs().IntersectCount(coll)
	}
	if cnt == 0 || cnt == n {
		// Matches nothing or everything: no refinement value.
		return
	}
	detail := fmt.Sprintf("%d of %d", cnt, n)
	b.Post(blackboard.Suggestion{
		Advisor: blackboard.AdvisorRefine,
		Group:   vsm.PathLabel(c.Path, r.env.Label),
		Title:   r.env.Graph.TermLabel(c.Value),
		Detail:  detail,
		Weight:  weight,
		Action:  blackboard.Refine{Add: pred},
		Key:     "refine:" + pred.Key(),
		Analyst: r.Name(),
	})
}

// postingCount returns how many collection members carry value v of
// property p: the (p, v) posting intersected with the collection.
//
//magnet:hot
func postingCount(g *rdf.Graph, p rdf.IRI, v rdf.Term, coll itemset.Set) int {
	return g.SubjectIDSet(p, v).IntersectCount(coll)
}

func (r *Refinement) suggestWord(b *blackboard.Board, c vsm.Coord, weight float64) {
	// Composed word coordinates have no direct text-index field; only
	// direct text attributes are suggested as term constraints.
	if len(c.Path) != 1 {
		return
	}
	field := string(c.Path[0])
	display := c.Word
	if r.env.Text != nil {
		display = r.env.Text.Surface(c.Word)
	}
	pred := query.TermMatch{Term: c.Word, Field: field, Display: display}
	b.Post(blackboard.Suggestion{
		Advisor: blackboard.AdvisorRefine,
		Group:   r.env.Label(c.Path[0]) + " words",
		Title:   display,
		Weight:  weight,
		Action:  blackboard.Refine{Add: pred},
		Key:     "refine:" + pred.Key(),
		Analyst: r.Name(),
	})
}
