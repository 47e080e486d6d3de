package web

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/obs"
)

// TestFlightRecorderEndToEnd drives the full observability chain the way
// magnet-server wires it: a request whose navigation step exceeds the slow
// threshold is tail-sampled by the flight recorder, shows up on
// /debug/traces?slow=1 under its request ID, that same ID is the exemplar
// on the request-latency histogram, and /debug/traces/{id}?format=text
// renders the captured span tree.
func TestFlightRecorderEndToEnd(t *testing.T) {
	// Threshold 1ns: every request is "slow". Restore the process-wide
	// recorder's policy afterwards so other tests see the default.
	old := obs.Records.SlowThreshold()
	obs.Records.SetSlowThreshold(time.Nanosecond)
	t.Cleanup(func() { obs.Records.SetSlowThreshold(old) })

	gb := recipes.Build(recipes.Config{Recipes: 200, Seed: 1})
	m := core.Open(gb, core.Options{})
	t.Cleanup(m.Close)

	// The magnet-server mux shape: app + recorder endpoints.
	mux := http.NewServeMux()
	mux.Handle("/", NewServer(m))
	mux.Handle("/debug/traces", obs.Records.Handler())
	mux.Handle("/debug/traces/", obs.Records.Handler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, _ := get("/"); code != http.StatusOK {
		t.Fatalf("GET / = %d", code)
	}

	// The request must be tail-sampled: newest slow web.request trace.
	code, body := get("/debug/traces?slow=1&name=web.request")
	if code != http.StatusOK {
		t.Fatalf("traces list = %d", code)
	}
	var list struct {
		Traces []struct {
			ID    string `json:"id"`
			Slow  bool   `json:"slow"`
			Spans int    `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("traces list: %v\n%s", err, body)
	}
	if len(list.Traces) == 0 {
		t.Fatal("slow request not retained by the flight recorder")
	}
	tr := list.Traces[0]
	if !tr.Slow || tr.Spans < 2 {
		t.Fatalf("retained trace = %+v, want slow with the step's child spans", tr)
	}

	// The trace ID is the request ID the middleware stamped, and the same
	// ID must sit as the exemplar on the request-latency histogram — the
	// metrics → trace join.
	found := false
	for _, e := range reqNS.Snapshot().Exemplars {
		if e.TraceID == tr.ID {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("trace %s has no matching exemplar on web.request.ns", tr.ID)
	}

	// Full JSON for the trace carries the request's span tree.
	code, body = get("/debug/traces/" + tr.ID)
	if code != http.StatusOK {
		t.Fatalf("trace page = %d", code)
	}
	var rec obs.TraceRecord
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		t.Fatalf("trace JSON: %v\n%s", err, body)
	}
	if rec.Name != "web.request" || rec.ID != tr.ID {
		t.Fatalf("trace record = name=%q id=%q", rec.Name, rec.ID)
	}

	// ?format=text renders the same record as an indented tree.
	code, body = get("/debug/traces/" + tr.ID + "?format=text")
	if code != http.StatusOK {
		t.Fatalf("text trace = %d", code)
	}
	if !strings.Contains(body, "web.request") || !strings.Contains(body, "session.") {
		t.Errorf("text tree missing request/step spans:\n%s", body)
	}
}
