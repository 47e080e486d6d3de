package web

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
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

// TestWebStageWorkCounts checks the vector store's work counters through
// the handlers: the all-items page computes one centroid over every item
// and searches for neighbours outside them, which reads only the rows of
// the IDs that are not items; an item page's similar-item search reads the
// postings of the item's terms.
func TestWebStageWorkCounts(t *testing.T) {
	m := core.Open(recipes.Build(recipes.Config{Recipes: 100, Seed: 1}), core.Options{})
	t.Cleanup(m.Close)
	srv := httptest.NewServer(NewServer(m))
	t.Cleanup(srv.Close)
	names := []string{"index.centroid.count", "index.centroid.rows", "index.vector.search.count", "index.vector.search.elems"}
	get := func(path string) map[string]uint64 {
		t.Helper()
		before := make(map[string]uint64)
		for _, n := range names {
			before[n] = obs.Default.Counter(n).Value()
		}
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		delta := make(map[string]uint64)
		for _, n := range names {
			delta[n] = obs.Default.Counter(n).Value() - before[n]
		}
		return delta
	}
	c := m.Model().Store().Columns()
	rowLen := func(id uint32) uint64 { return uint64(c.RowStart[id+1] - c.RowStart[id]) }

	items := m.ItemIDs()
	outside := uint64(len(c.RowTerm))
	for _, id := range items.Slice() {
		outside -= rowLen(id)
	}
	want := map[string]uint64{"index.centroid.count": 1, "index.centroid.rows": uint64(items.Len()), "index.vector.search.count": 1, "index.vector.search.elems": outside}
	if got := get("/"); !reflect.DeepEqual(got, want) {
		t.Errorf("GET /: counts %v, want %v", got, want)
	}

	item := m.Graph().SubjectsOfType(recipes.ClassRecipe)[0]
	id, _ := m.Graph().SubjectID(item)
	var posted uint64
	for _, term := range c.RowTerm[c.RowStart[id]:c.RowStart[id+1]] {
		posted += uint64(c.PostStart[term+1] - c.PostStart[term])
	}
	want = map[string]uint64{"index.centroid.count": 0, "index.centroid.rows": 0, "index.vector.search.count": 1, "index.vector.search.elems": posted}
	if got := get("/open?item=" + url.QueryEscape(string(item))); !reflect.DeepEqual(got, want) {
		t.Errorf("GET /open: counts %v, want %v", got, want)
	}
}
