// Package inexeval implements the paper's browsing-flexibility evaluation
// (§6.2) over the INEX-style corpus: content-only (CO) topics resolved the
// way a user would — keyword search, then navigating up to the enclosing
// article — and content-and-structure (CAS) topics resolved through the
// vector space model's composed coordinates plus a navigation step across
// the structure. The tree-shape ablation reproduces the paper's observed
// limitation: "Magnet would not follow multiple steps by default", so
// without the annotation CAS recall collapses while CO is unaffected.
package inexeval

import (
	"sort"

	"magnet/internal/core"
	"magnet/internal/datasets/inex"
	"magnet/internal/rdf"
	"magnet/internal/text"
	"magnet/internal/vsm"
)

// Result is one topic's outcome.
type Result struct {
	Topic     inex.Topic
	Retrieved []rdf.IRI
	// Recall is |retrieved ∩ relevant| / |relevant| at cutoff R (the size
	// of the ground-truth set).
	Recall float64
}

// System wraps a Magnet instance over an INEX corpus.
type System struct {
	Corpus *inex.Corpus
	M      *core.Magnet
}

// Open builds the evaluation system for a corpus.
func Open(c *inex.Corpus) *System {
	m := core.Open(c.Graph, core.Options{})
	return &System{Corpus: c, M: m}
}

// Run evaluates every topic and returns results in topic order.
func (s *System) Run() []Result {
	out := make([]Result, 0, len(s.Corpus.Topics))
	for _, t := range s.Corpus.Topics {
		var retrieved []rdf.IRI
		if t.Kind == inex.CO {
			retrieved = s.runCO(t)
		} else {
			retrieved = s.runCAS(t)
		}
		out = append(out, Result{
			Topic:     t,
			Retrieved: retrieved,
			Recall:    recall(retrieved, t.Relevant),
		})
	}
	return out
}

// runCO resolves a content-only topic the way the paper describes CO
// searches ("the direct application of traditional IR techniques"): ranked
// keyword search over the external text index, with each hit mapped up to
// its enclosing target-class element.
func (s *System) runCO(t inex.Topic) []rdf.IRI {
	hits := s.M.TextIndex().Search(t.Text, "", 0)
	cutoff := len(t.Relevant)
	var out []rdf.IRI
	seen := map[rdf.IRI]bool{}
	for _, h := range hits {
		if len(out) >= cutoff {
			break
		}
		anc, ok := s.enclosing(rdf.IRI(h.ID), t.TargetClass)
		if !ok || seen[anc] {
			continue
		}
		seen[anc] = true
		out = append(out, anc)
	}
	return out
}

// enclosing climbs reverse edges from node until an element of class cls is
// reached (XML trees have unique parents; the converter guarantees
// termination).
func (s *System) enclosing(node rdf.IRI, cls rdf.IRI) (rdf.IRI, bool) {
	g := s.M.Graph()
	for steps := 0; steps < 32; steps++ {
		if g.Has(node, rdf.Type, cls) {
			return node, true
		}
		parent, ok := parentOf(g, node)
		if !ok {
			return "", false
		}
		node = parent
	}
	return "", false
}

func parentOf(g *rdf.Graph, node rdf.IRI) (rdf.IRI, bool) {
	for _, p := range g.Predicates() {
		if p == rdf.Type {
			continue
		}
		for _, s := range g.Subjects(p, node) {
			return s, true
		}
	}
	return "", false
}

// casAnchor maps a CAS topic to the element class whose composed vector
// coordinates carry the topic's structure: authors for the vitae topic,
// articles for section-content topics.
func casAnchor(t inex.Topic) (anchor rdf.IRI, hop rdf.IRI) {
	if t.TargetClass == inex.ClassVita {
		return inex.ClassAuthor, inex.PropVita
	}
	return t.TargetClass, ""
}

// runCAS resolves a content-and-structure topic: rank anchor-class items by
// their word coordinates (which, on tree-shaped data, include composed
// multi-step attributes), then navigate the final structural hop to the
// target class.
func (s *System) runCAS(t inex.Topic) []rdf.IRI {
	anchorCls, hop := casAnchor(t)
	tokens := map[string]bool{}
	for _, tok := range text.DefaultAnalyzer.Terms(t.Text) {
		tokens[tok] = true
	}
	anchors := s.M.Graph().SubjectsOfType(anchorCls)

	type scored struct {
		item  rdf.IRI
		score float64
	}
	var ranked []scored
	for _, a := range anchors {
		sc := wordScore(s.M.Model(), a, tokens)
		if sc > 0 {
			ranked = append(ranked, scored{a, sc})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].item < ranked[j].item
	})

	cutoff := len(t.Relevant)
	var out []rdf.IRI
	for _, r := range ranked {
		if len(out) >= cutoff {
			break
		}
		item := r.item
		if hop != "" {
			o, ok := s.M.Graph().Object(item, hop)
			if !ok {
				continue
			}
			item = o.(rdf.IRI)
		}
		out = append(out, item)
	}
	return out
}

// wordScore sums the item's word-coordinate weights whose (stemmed) word is
// among the query tokens, over all property paths.
func wordScore(m *vsm.Model, item rdf.IRI, tokens map[string]bool) float64 {
	var sum float64
	for _, tw := range m.Weights(item) {
		c, ok := vsm.ParseCoord(tw.Term)
		if !ok || c.Kind != vsm.CoordWord {
			continue
		}
		if tokens[c.Word] {
			sum += tw.Weight
		}
	}
	return sum
}

func recall(retrieved, relevant []rdf.IRI) float64 {
	if len(relevant) == 0 {
		return 0
	}
	rel := make(map[rdf.IRI]bool, len(relevant))
	for _, r := range relevant {
		rel[r] = true
	}
	hit := 0
	for _, r := range retrieved {
		if rel[r] {
			hit++
		}
	}
	return float64(hit) / float64(len(relevant))
}

// MeanRecall averages recall over results of the given kind.
func MeanRecall(results []Result, kind inex.TopicKind) float64 {
	var sum float64
	n := 0
	for _, r := range results {
		if r.Topic.Kind == kind {
			sum += r.Recall
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
