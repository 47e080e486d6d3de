package simuser

import (
	"fmt"
	"math/rand"

	"magnet/internal/core"
)

// Replay drives the study's simulated users against an externally provided
// core.Magnet instance — the serving-side counterpart of Study, which owns
// its corpus and systems. The benchmark of record, clickbench, replays the
// same tasks over HTTP.
//
// A Replay is safe for concurrent use: the study environment is read-only
// after preparation, each Session call creates its own core.Session and
// rand source, and the shared Magnet's engine/pool are concurrency-safe.
// Per-session history state lives inside the fresh core.Session, so
// concurrent sessions never share mutable navigation state.
type Replay struct {
	m   *core.Magnet
	env *studyEnv
}

// NewReplay prepares a replay environment over m's graph. The graph must
// be a recipes corpus (datasets/recipes vocabulary) — the study tasks
// navigate by its properties.
func NewReplay(m *core.Magnet) *Replay {
	env := &studyEnv{graph: m.Graph()}
	env.prepare()
	return &Replay{m: m, env: env}
}

// NumTasks is the number of distinct study tasks Session dispatches on.
const NumTasks = 2

// Session replays one simulated-user session: a fresh core.Session against
// the shared instance, running study task (task mod NumTasks) with the
// complete advisor set, seeded deterministically. Returns the recipes the
// user found. Safe to call from many goroutines at once.
func (r *Replay) Session(task int, seed int64) int {
	u := newUser(rand.New(rand.NewSource(seed)))
	s := r.m.NewSession()
	var n int
	switch ((task % NumTasks) + NumTasks) % NumTasks {
	case 0:
		n = r.env.task1(u, s, true)
	default:
		n = r.env.task2(u, s, true)
	}
	// The user looks at the final result: render the navigation pane and
	// the facet overview, so a replay exercises all three session step
	// paths, not just query evaluation.
	_ = s.Pane()
	_ = s.Overview(10)
	return n
}

// Target returns task 1's "aunt's recipe" (diagnostics; empty when the
// graph carries no walnut recipe, in which case the corpus is not a usable
// study fixture).
func (r *Replay) Target() (string, error) {
	if r.env.target == "" {
		return "", fmt.Errorf("simuser: corpus has no walnut recipe; not a recipes study fixture")
	}
	return string(r.env.target), nil
}
