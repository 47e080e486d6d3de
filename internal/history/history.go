// Package history tracks the user's navigation: the visit log backing the
// History advisor's "Previous" suggestions, the refinement trail backing
// undo, and the transition statistics backing the "Similar by Visit"
// advisor ("an intelligent history that presents those suggestions that the
// user has followed often in the past from the current document", §4.1).
package history

import (
	"sort"
	"sync"

	"magnet/internal/query"
)

// Tracker records visits, transitions and the refinement trail. It is safe
// for concurrent use.
type Tracker struct {
	mu sync.Mutex

	// visits is the ordered log of view keys, most recent last;
	// guarded by mu.
	visits []string
	// transitions counts, for each view key, which views the user went to
	// next: from → to → count; guarded by mu.
	transitions map[string]map[string]int
	// trail is the refinement trail of queries, most recent last;
	// guarded by mu.
	trail []query.Query
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{transitions: make(map[string]map[string]int)}
}

// RecordVisit appends a view (identified by a stable key: an item IRI or a
// query key) to the visit log, updating transition counts from the
// previously current view. Consecutive duplicate visits collapse.
func (t *Tracker) RecordVisit(key string) {
	if key == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.visits); n > 0 {
		prev := t.visits[n-1]
		if prev == key {
			return
		}
		m := t.transitions[prev]
		if m == nil {
			m = make(map[string]int)
			t.transitions[prev] = m
		}
		m[key]++
	}
	t.visits = append(t.visits, key)
}

// Recent returns up to n distinct previously seen keys, most recent first,
// excluding the current view (the History advisor's "Previous" list).
func (t *Tracker) Recent(n int) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || len(t.visits) == 0 {
		return nil
	}
	seen := map[string]bool{t.visits[len(t.visits)-1]: true}
	var out []string
	for i := len(t.visits) - 2; i >= 0 && len(out) < n; i-- {
		k := t.visits[i]
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, k)
	}
	return out
}

// Followed is a destination with the number of times the user followed it
// from a given view.
type Followed struct {
	Key   string
	Count int
}

// FollowedFrom returns up to n views the user has most often visited next
// after the given view, descending by count (ties alphabetical). This backs
// "Similar by Visit": "items that were visited the last time the user left
// the currently viewed item".
func (t *Tracker) FollowedFrom(key string, n int) []Followed {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.transitions[key]
	if len(m) == 0 || n <= 0 {
		return nil
	}
	out := make([]Followed, 0, len(m))
	for k, c := range m {
		out = append(out, Followed{k, c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// PushQuery appends a query to the refinement trail (skipping consecutive
// duplicates by key).
func (t *Tracker) PushQuery(q query.Query) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.trail); n > 0 && t.trail[n-1].Key() == q.Key() {
		return
	}
	t.trail = append(t.trail, q)
}

// Trail returns a copy of the refinement trail, oldest first.
func (t *Tracker) Trail() []query.Query {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]query.Query, len(t.trail))
	copy(out, t.trail)
	return out
}

// Back pops the current query off the trail and returns the previous one
// (the History advisor's "Refinement ... undo previous refinements"). ok is
// false when there is nothing to go back to.
func (t *Tracker) Back() (query.Query, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.trail) < 2 {
		return query.Query{}, false
	}
	t.trail = t.trail[:len(t.trail)-1]
	return t.trail[len(t.trail)-1], true
}
