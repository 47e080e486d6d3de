package web

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/obs"
)

// TestWebStageTimings checks that page requests name the serving stages
// that would otherwise hide in their unattributed time: the wait for the
// server lock (web.lock_wait, once to find the session and once to run the
// step), template execution (web.render), and on the item page the
// similar-item search with its explanations (web.item_similar). Each lands
// in its histogram and as a child span of the request's trace.
func TestWebStageTimings(t *testing.T) {
	old := obs.Records.SlowThreshold()
	obs.Records.SetSlowThreshold(time.Nanosecond) // retain every trace
	t.Cleanup(func() { obs.Records.SetSlowThreshold(old) })

	m := core.Open(recipes.Build(recipes.Config{Recipes: 100, Seed: 1}), core.Options{})
	t.Cleanup(m.Close)
	srv := httptest.NewServer(NewServer(m))
	t.Cleanup(srv.Close)

	// get requests path and returns the stage histograms' new observations
	// with the request's child spans.
	get := func(path string) (lock, similar, render uint64, children map[string]int) {
		t.Helper()
		lockBefore, similarBefore, renderBefore := lockWaitNS.Snapshot().Count, itemSimilarNS.Snapshot().Count, renderNS.Snapshot().Count
		sent := time.Now()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		// The trace is recorded after the response is written; wait for
		// the one that started with this request.
		var trace *obs.TraceRecord
		for deadline := time.Now().Add(5 * time.Second); trace == nil; {
			if traces := obs.Records.Traces(obs.TraceFilter{SlowOnly: true, Name: "web.request"}); len(traces) > 0 && traces[0].Start.After(sent) {
				trace = traces[0]
			} else if time.Now().After(deadline) {
				t.Fatalf("GET %s: request trace not retained", path)
			} else {
				time.Sleep(time.Millisecond)
			}
		}
		children = map[string]int{}
		for _, sp := range trace.Spans {
			if sp.Depth == 1 {
				children[sp.Name]++
			}
		}
		return lockWaitNS.Snapshot().Count - lockBefore, itemSimilarNS.Snapshot().Count - similarBefore,
			renderNS.Snapshot().Count - renderBefore, children
	}

	lock, similar, render, children := get("/")
	if lock != 2 || similar != 0 || render != 1 {
		t.Errorf("GET /: observed %d lock waits, %d similar searches, %d renders; want 2, 0, 1", lock, similar, render)
	}
	if children["web.lock_wait"] != 2 || children["web.item_similar"] != 0 || children["web.render"] != 1 {
		t.Errorf("GET /: child spans = %v, want web.lock_wait twice and web.render once", children)
	}

	item := m.Graph().SubjectsOfType(recipes.ClassRecipe)[0]
	lock, similar, render, children = get("/open?item=" + url.QueryEscape(string(item)))
	if lock != 2 || similar != 1 || render != 1 {
		t.Errorf("GET /open: observed %d lock waits, %d similar searches, %d renders; want 2, 1, 1", lock, similar, render)
	}
	if children["web.lock_wait"] != 2 || children["web.item_similar"] != 1 || children["web.render"] != 1 {
		t.Errorf("GET /open: child spans = %v, want web.lock_wait twice, web.item_similar and web.render once", children)
	}
}
