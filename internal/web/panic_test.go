package web

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"magnet/internal/analysts"
	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
)

// boomAnalyst panics on any view whose query mentions "boom", and stays
// silent elsewhere. It counts its runs.
type boomAnalyst struct{ runs *atomic.Int32 }

func (boomAnalyst) Name() string { return "boom" }

func (boomAnalyst) Triggered(v blackboard.View) bool {
	return strings.Contains(v.Query.Key(), "boom")
}

func (a boomAnalyst) Suggest(blackboard.View, *blackboard.Board) {
	a.runs.Add(1)
	panic("boom analyst")
}

// lockedBuffer is a log sink safe for the server's handler goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestPanickingStepDoesNotWedgeServer sends one request whose pane panics
// inside an analyst. That request must get a 500 naming its request ID,
// be logged once, and run the panicking step once (a dropped connection
// would make the client's transport retry it). Then a fresh browser's
// overview must be served promptly: the panicking step must release the
// server lock on its way out.
func TestPanickingStepDoesNotWedgeServer(t *testing.T) {
	g := recipes.Build(recipes.Config{Recipes: 200, Seed: 1})
	var runs atomic.Int32
	m := core.Open(g, core.Options{Analysts: func(env *analysts.Env) []blackboard.Analyst {
		return append(analysts.DefaultSet(env), boomAnalyst{&runs})
	}})
	defer m.Close()
	var logs lockedBuffer
	srv := httptest.NewServer(NewServer(m, WithLogger(slog.New(slog.NewTextHandler(&logs, nil)))))

	// Each browser gives up after 10 s, so a wedged server fails the test
	// rather than hanging it.
	browser := func() *http.Client {
		jar, err := cookiejar.New(nil)
		if err != nil {
			t.Fatal(err)
		}
		return &http.Client{Jar: jar, Timeout: 10 * time.Second}
	}
	resp, err := browser().Get(srv.URL + "/search?q=boom")
	if err != nil {
		t.Fatalf("GET /search?q=boom: %v, want a 500 from the panicking pane", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("GET /search?q=boom = %d, want 500", resp.StatusCode)
	}
	id := regexp.MustCompile(`request ([0-9a-f]+-[0-9]+)`).FindSubmatch(body)
	if id == nil {
		t.Fatalf("500 body %q carries no request ID", body)
	}

	resp, err = browser().Get(srv.URL + "/overview")
	if err != nil {
		// The server is left open: Close waits for every handler, and a
		// wedged one never returns.
		t.Fatalf("GET /overview after a panicking step: %v (server wedged)", err)
	}
	resp.Body.Close()
	srv.Close() // every handler has returned, so every log line is written
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /overview after a panicking step = %d", resp.StatusCode)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("panicking analyst ran %d times, want 1", n)
	}
	var access []string
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, "msg=request") && strings.Contains(line, "id="+string(id[1])) {
			access = append(access, line)
		}
	}
	if len(access) != 1 || !strings.Contains(access[0], "status=500") || !strings.Contains(access[0], "path=/ ") {
		t.Errorf("access-log lines for the panicking request %s = %q, want one GET / with status=500", id[1], access)
	}
}
