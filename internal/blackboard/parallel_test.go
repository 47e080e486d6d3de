package blackboard

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"magnet/internal/itemset"
	"magnet/internal/rdf"
)

// slowAnalyst posts a few suggestions, some with keys that collide across
// analysts so the dedup outcome depends on posting order, and spins a
// little so concurrent runs actually interleave.
type slowAnalyst struct {
	name  string
	posts []Suggestion
	react []Suggestion
}

func (a *slowAnalyst) Name() string          { return a.name }
func (a *slowAnalyst) Triggered(v View) bool { return true }
func (a *slowAnalyst) Suggest(v View, b *Board) {
	spin()
	for _, s := range a.posts {
		s.Analyst = a.name
		b.Post(s)
	}
}

func (a *slowAnalyst) React(v View, posted []Suggestion, b *Board) {
	spin()
	// React deterministically to the snapshot: one suggestion keyed off
	// the posted count, plus the analyst's fixed reactor posts.
	b.Post(Suggestion{
		Advisor: AdvisorModify,
		Title:   fmt.Sprintf("%s saw %d", a.name, len(posted)),
		Key:     fmt.Sprintf("react:%s", a.name),
		Analyst: a.name,
	})
	for _, s := range a.react {
		s.Analyst = a.name
		b.Post(s)
	}
}

func spin() {
	x := 1
	for i := 0; i < 20_000; i++ {
		x = x*31 + i
	}
	_ = x
}

// contentAnalyst is slowAnalyst without the reactor round.
type contentAnalyst struct{ slowAnalyst }

func buildAnalysts() []Analyst {
	mk := func(adv, title, key string, w float64) Suggestion {
		return Suggestion{Advisor: adv, Title: title, Key: key, Weight: w}
	}
	return []Analyst{
		&slowAnalyst{
			name: "alpha",
			posts: []Suggestion{
				mk(AdvisorRefine, "by author", "refine:author", 3),
				mk(AdvisorRefine, "by year", "refine:year", 2),
				mk(AdvisorRelated, "shared tag", "dup:shared", 1),
			},
			react: []Suggestion{mk(AdvisorModify, "drop author", "dup:modify", 1)},
		},
		&contentAnalyst{slowAnalyst{
			name: "beta",
			posts: []Suggestion{
				// Collides with alpha's key: only the first-registered
				// analyst's copy may survive.
				mk(AdvisorRelated, "shared tag (beta)", "dup:shared", 9),
				mk(AdvisorRelated, "similar text", "related:text", 4),
				mk(AdvisorQuery, "keyword", "", 0), // empty key: never deduped
			},
		}},
		&slowAnalyst{
			name: "gamma",
			posts: []Suggestion{
				mk(AdvisorHistory, "previous", "hist:prev", 1),
				mk(AdvisorQuery, "keyword", "", 0),
			},
			react: []Suggestion{mk(AdvisorModify, "drop author (gamma)", "dup:modify", 5)},
		},
	}
}

func runOnce() *Board {
	r := NewRegistry(buildAnalysts()...)
	return r.RunContext(context.Background(), ItemView(rdf.IRI("urn:item:1"), itemset.Set{}))
}

// TestSerialParallelDeterminism checks the board of a run: the
// first-registered poster wins every key collision, in the primary and
// the reactor round, and repeated runs post the same board.
func TestSerialParallelDeterminism(t *testing.T) {
	serial := runOnce().Suggestions()
	if len(serial) == 0 {
		t.Fatal("run posted nothing")
	}
	// The dedup winner must be the first-registered poster.
	for _, s := range serial {
		if s.Key == "dup:shared" && s.Analyst != "alpha" {
			t.Fatalf("dup:shared won by %q, want alpha", s.Analyst)
		}
		if s.Key == "dup:modify" && s.Analyst != "alpha" {
			t.Fatalf("dup:modify won by %q, want alpha", s.Analyst)
		}
	}
	for round := 0; round < 50; round++ {
		if got := runOnce().Suggestions(); !reflect.DeepEqual(got, serial) {
			t.Fatalf("round %d: board differs from the first run:\n got %+v\nwant %+v", round, got, serial)
		}
	}
}

// TestRegistryConcurrentRuns shares one registry between goroutines, the
// way concurrent steps may: it is fixed at construction and holds no lock,
// so every run must still produce the serial board.
func TestRegistryConcurrentRuns(t *testing.T) {
	serial := runOnce().Suggestions()
	r := NewRegistry(buildAnalysts()...)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				got := r.RunContext(context.Background(), ItemView(rdf.IRI("urn:item:1"), itemset.Set{})).Suggestions()
				if !reflect.DeepEqual(got, serial) {
					t.Errorf("concurrent run differs from serial:\n got %+v\nwant %+v", got, serial)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRunStopsOnCancelledContext checks a run on a cancelled context
// starts no analyst, so nothing is posted in either round.
func TestRunStopsOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRegistry(buildAnalysts()...)
	if got := r.RunContext(ctx, ItemView(rdf.IRI("urn:item:1"), itemset.Set{})).Suggestions(); len(got) != 0 {
		t.Fatalf("cancelled run posted %+v, want nothing", got)
	}
}

// TestByAdvisorMemoized checks the grouping is consistent before and
// after posts, and that the memoized copy matches a fresh computation.
func TestByAdvisorMemoized(t *testing.T) {
	b := NewBoard()
	b.Post(Suggestion{Advisor: "A", Title: "one", Key: "k1"})
	b.Post(Suggestion{Advisor: "B", Title: "two", Key: "k2"})
	first := b.ByAdvisor()
	if len(first["A"]) != 1 || len(first["B"]) != 1 {
		t.Fatalf("ByAdvisor = %+v", first)
	}
	again := b.ByAdvisor()
	if !reflect.DeepEqual(first, again) {
		t.Fatal("repeated ByAdvisor calls differ")
	}
	// Appending to a returned slice must not corrupt the cache.
	_ = append(again["A"], Suggestion{Advisor: "A", Title: "intruder"})
	if got := b.ByAdvisor(); len(got["A"]) != 1 || got["A"][0].Title != "one" {
		t.Fatalf("cache corrupted by caller append: %+v", got["A"])
	}
	// A new post invalidates the cache.
	b.Post(Suggestion{Advisor: "A", Title: "three", Key: "k3"})
	if got := b.ByAdvisor(); len(got["A"]) != 2 || got["A"][1].Title != "three" {
		t.Fatalf("stale ByAdvisor after post: %+v", got["A"])
	}
	// Duplicate-key post is rejected and must not invalidate or grow.
	b.Post(Suggestion{Advisor: "A", Title: "dup", Key: "k3"})
	if got := b.ByAdvisor(); len(got["A"]) != 2 {
		t.Fatalf("rejected post changed grouping: %+v", got["A"])
	}
}

// TestAnalystPanicPropagates checks that a panicking analyst fails the
// whole run with its own panic value.
func TestAnalystPanicPropagates(t *testing.T) {
	r := NewRegistry(
		&slowAnalyst{name: "ok", posts: []Suggestion{{Advisor: "A", Title: "t"}}},
		&panicAnalyst{},
	)
	defer func() {
		if p := recover(); p != "analyst bug" {
			t.Errorf("run panicked with %v, want analyst bug", p)
		}
	}()
	r.RunContext(context.Background(), ItemView(rdf.IRI("urn:item:1"), itemset.Set{}))
}

type panicAnalyst struct{}

func (panicAnalyst) Name() string         { return "panics" }
func (panicAnalyst) Triggered(View) bool  { return true }
func (panicAnalyst) Suggest(View, *Board) { panic("analyst bug") }
