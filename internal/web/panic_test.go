package web

import (
	"io"
	"log"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"magnet/internal/analysts"
	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
)

// boomAnalyst panics on any view whose query mentions "boom", and stays
// silent elsewhere.
type boomAnalyst struct{}

func (boomAnalyst) Name() string { return "boom" }

func (boomAnalyst) Triggered(v blackboard.View) bool {
	return strings.Contains(v.Query.Key(), "boom")
}

func (boomAnalyst) Suggest(blackboard.View, *blackboard.Board) { panic("boom analyst") }

// TestPanickingStepDoesNotWedgeServer sends one request whose pane panics
// inside an analyst, then requires a fresh browser's overview to be served
// promptly: the panicking step must release the server lock on its way out.
func TestPanickingStepDoesNotWedgeServer(t *testing.T) {
	g := recipes.Build(recipes.Config{Recipes: 200, Seed: 1})
	m := core.Open(g, core.Options{Analysts: func(env *analysts.Env) []blackboard.Analyst {
		return append(analysts.DefaultSet(env), boomAnalyst{})
	}})
	defer m.Close()
	srv := httptest.NewUnstartedServer(NewServer(m))
	// net/http logs the recovered panic with its stack; keep it out of the
	// test output.
	srv.Config.ErrorLog = log.New(io.Discard, "", 0)
	srv.Start()

	// Each browser gives up after 10 s. The transport retries the GET that
	// dropped its connection, so on a wedged server even the panicking
	// request ends in that timeout.
	browser := func() *http.Client {
		jar, err := cookiejar.New(nil)
		if err != nil {
			t.Fatal(err)
		}
		return &http.Client{Jar: jar, Timeout: 10 * time.Second}
	}
	if resp, err := browser().Get(srv.URL + "/search?q=boom"); err == nil {
		resp.Body.Close()
		t.Fatalf("GET /search?q=boom = %d, want the panicking pane to drop the connection", resp.StatusCode)
	}

	resp, err := browser().Get(srv.URL + "/overview")
	if err != nil {
		// The server is left open: Close waits for every handler, and a
		// wedged one never returns.
		t.Fatalf("GET /overview after a panicking step: %v (server wedged)", err)
	}
	resp.Body.Close()
	srv.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /overview after a panicking step = %d", resp.StatusCode)
	}
}
