package web

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/obs"
)

// TestWebStageTimings checks that a page request names the two serving
// stages that would otherwise hide in its unattributed time: the wait for
// the server lock (web.lock_wait, once to find the session and once to
// run the step) and template execution (web.render). Each lands in its
// histogram and as a child span of the request's trace.
func TestWebStageTimings(t *testing.T) {
	old := obs.Records.SlowThreshold()
	obs.Records.SetSlowThreshold(time.Nanosecond) // retain every trace
	t.Cleanup(func() { obs.Records.SetSlowThreshold(old) })

	m := core.Open(recipes.Build(recipes.Config{Recipes: 100, Seed: 1}), core.Options{})
	t.Cleanup(m.Close)
	srv := httptest.NewServer(NewServer(m))
	t.Cleanup(srv.Close)

	lockBefore, renderBefore := lockWaitNS.Snapshot().Count, renderNS.Snapshot().Count
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET / = %d", resp.StatusCode)
	}
	if n := lockWaitNS.Snapshot().Count - lockBefore; n != 2 {
		t.Errorf("web.lock_wait.ns observed %d waits, want 2", n)
	}
	if n := renderNS.Snapshot().Count - renderBefore; n != 1 {
		t.Errorf("web.render.ns observed %d renders, want 1", n)
	}

	traces := obs.Records.Traces(obs.TraceFilter{SlowOnly: true, Name: "web.request"})
	if len(traces) == 0 {
		t.Fatal("request trace not retained")
	}
	children := map[string]int{}
	for _, sp := range traces[0].Spans {
		if sp.Depth == 1 {
			children[sp.Name]++
		}
	}
	if children["web.lock_wait"] != 2 || children["web.render"] != 1 {
		t.Errorf("request's child spans = %v, want web.lock_wait twice and web.render once", children)
	}
}
