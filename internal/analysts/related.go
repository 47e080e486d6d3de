package analysts

import (
	"fmt"

	"magnet/internal/blackboard"
	"magnet/internal/query"
)

// SharedProperty is the Related Items analyst for "Sharing a property":
// from a single item it suggests collections of items "that have a given
// metadata attribute and value in common with the currently viewed item"
// (§4.1). Rarer shared values get higher weights (idf-style), since they
// identify more distinctive company.
type SharedProperty struct {
	env *Env
	max int
}

// NewSharedProperty returns the analyst posting at most max suggestions.
func NewSharedProperty(env *Env, max int) *SharedProperty {
	return &SharedProperty{env: env, max: max}
}

// Name implements blackboard.Analyst.
func (*SharedProperty) Name() string { return "shared-property" }

// Triggered implements blackboard.Analyst: single-item views only.
func (*SharedProperty) Triggered(v blackboard.View) bool { return v.IsItem() }

// Suggest implements blackboard.Analyst.
func (s *SharedProperty) Suggest(v blackboard.View, b *blackboard.Board) {
	g := s.env.Graph
	total := g.SubjectTable().Len()
	posted := 0
	for _, p := range g.PredicatesOf(v.Item) {
		if s.env.Schema.Hidden(p) {
			continue
		}
		for _, val := range g.Objects(v.Item, p) {
			if posted >= s.max {
				return
			}
			sharers := g.SubjectCount(p, val)
			if sharers < 2 { // nobody else shares it
				continue
			}
			// Weight: rarer shared values are more distinctive. Scale to
			// (0,1]: sharing with 1 other ≈ 1, sharing with everyone → 0.
			weight := 1 - float64(sharers)/float64(total+1)
			pred := query.Property{Prop: p, Value: val}
			q := query.NewQuery(pred)
			b.Post(blackboard.Suggestion{
				Advisor: blackboard.AdvisorRelated,
				Group:   "Sharing a property",
				Title:   pred.Describe(s.env.Labeler()),
				Detail:  fmt.Sprintf("%d items", sharers),
				Weight:  weight,
				Action:  blackboard.ReplaceQuery{Query: q},
				Key:     "shared:" + pred.Key(),
				Analyst: s.Name(),
			})
			posted++
		}
	}
}

// SimilarItem is the Related Items analyst for "Similar by Content
// (Overall)" on single items: "a fuzzy approach (as determined by a
// standard learning algorithm) to showing other items having both similar
// structural elements (properties) and similar textual elements" — the
// vector space model's dot-product neighbours (§5.3).
type SimilarItem struct {
	env *Env
	k   int
}

// NewSimilarItem returns the analyst materializing the top-k neighbours.
func NewSimilarItem(env *Env, k int) *SimilarItem {
	return &SimilarItem{env: env, k: k}
}

// Name implements blackboard.Analyst.
func (*SimilarItem) Name() string { return "similar-by-content-item" }

// Triggered implements blackboard.Analyst.
func (*SimilarItem) Triggered(v blackboard.View) bool { return v.IsItem() }

// Suggest implements blackboard.Analyst.
func (s *SimilarItem) Suggest(v blackboard.View, b *blackboard.Board) {
	sims := s.env.Model.SimilarToItem(v.Item, s.k)
	if len(sims) == 0 {
		return
	}
	ids := make([]uint32, len(sims))
	for i, sc := range sims {
		ids[i] = sc.ID
	}
	b.Post(blackboard.Suggestion{
		Advisor: blackboard.AdvisorRelated,
		Group:   "Similar by Content",
		Title:   "Overall (textual and structural)",
		Detail:  fmt.Sprintf("%d items", len(ids)),
		Weight:  sims[0].Score,
		Action: blackboard.GoToCollection{
			Title: "Items similar to " + s.env.Label(v.Item),
			IDs:   ids,
		},
		Key:     "simitem:" + string(v.Item),
		Analyst: s.Name(),
	})
}

// SimilarCollection is the collection-side "Similar by Content" analyst:
// "the other for working with collections and providing more items similar
// to the items in the collection" (§4.1), via the centroid "average member"
// of §5.3.
type SimilarCollection struct {
	env *Env
	k   int
}

// NewSimilarCollection returns the analyst materializing the top-k
// non-member neighbours of the collection centroid.
func NewSimilarCollection(env *Env, k int) *SimilarCollection {
	return &SimilarCollection{env: env, k: k}
}

// Name implements blackboard.Analyst.
func (*SimilarCollection) Name() string { return "similar-by-content-collection" }

// Triggered implements blackboard.Analyst.
func (*SimilarCollection) Triggered(v blackboard.View) bool {
	return v.IsCollection() && v.Len() >= 1
}

// Suggest implements blackboard.Analyst.
func (s *SimilarCollection) Suggest(v blackboard.View, b *blackboard.Board) {
	sims := s.env.Model.Nearest(s.env.centroid(v), s.k, v.IDs)
	if len(sims) == 0 {
		return
	}
	ids := make([]uint32, len(sims))
	for i, sc := range sims {
		ids[i] = sc.ID
	}
	b.Post(blackboard.Suggestion{
		Advisor: blackboard.AdvisorRelated,
		Group:   "Similar by Content",
		Title:   "More items like these",
		Detail:  fmt.Sprintf("%d items", len(ids)),
		Weight:  sims[0].Score,
		Action:  blackboard.GoToCollection{Title: "Items similar to the collection", IDs: ids},
		Key:     "simcoll:" + v.Query.Key(),
		Analyst: s.Name(),
	})
}

// SimilarByVisit is the "intelligent history" analyst (§4.1): it suggests
// views "that were visited the last time the user left the currently viewed
// item", weighted by how often each was followed.
type SimilarByVisit struct {
	env *Env
	k   int
}

// NewSimilarByVisit returns the analyst suggesting at most k destinations.
func NewSimilarByVisit(env *Env, k int) *SimilarByVisit {
	return &SimilarByVisit{env: env, k: k}
}

// Name implements blackboard.Analyst.
func (*SimilarByVisit) Name() string { return "similar-by-visit" }

// Triggered implements blackboard.Analyst: needs history plumbing.
func (s *SimilarByVisit) Triggered(blackboard.View) bool {
	return s.env.Tracker != nil && s.env.LookupView != nil
}

// Suggest implements blackboard.Analyst.
func (s *SimilarByVisit) Suggest(v blackboard.View, b *blackboard.Board) {
	followed := s.env.Tracker.FollowedFrom(v.Key(), s.k)
	if len(followed) == 0 {
		return
	}
	maxC := followed[0].Count
	for _, f := range followed {
		dest, ok := s.env.LookupView(f.Key)
		if !ok {
			continue
		}
		title, action := describeDestination(s.env, dest)
		b.Post(blackboard.Suggestion{
			Advisor: blackboard.AdvisorRelated,
			Group:   "Similar by Visit",
			Title:   title,
			Detail:  fmt.Sprintf("followed %d×", f.Count),
			Weight:  float64(f.Count) / float64(maxC),
			Action:  action,
			Key:     "visit:" + v.Key() + "→" + f.Key,
			Analyst: s.Name(),
		})
	}
}

// describeDestination renders a view as a suggestion title plus the action
// that navigates to it.
func describeDestination(env *Env, dest blackboard.View) (string, blackboard.Action) {
	if dest.IsItem() {
		return env.Label(dest.Item), blackboard.GoToItem{Item: dest.Item}
	}
	return describeQuery(env, dest.Query), blackboard.ReplaceQuery{Query: dest.Query}
}

// describeQuery renders a query as a suggestion title: its constraints
// joined by ∧, or "all items" for the empty query.
func describeQuery(env *Env, q query.Query) string {
	descs := q.Describe(env.Labeler())
	title := "all items"
	if len(descs) > 0 {
		title = descs[0]
		for _, d := range descs[1:] {
			title += " ∧ " + d
		}
	}
	return title
}
