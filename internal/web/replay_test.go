package web

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
)

// replayBudget bounds the wall clock of one replay.
const replayBudget = 120 * time.Second

// walkClicks is the length of the seeded link walk each replayed session
// takes after its task steps.
const walkClicks = 12

// replay drives sessions seeded browser sessions through h over httptest,
// at most concurrency at once, as magnet-server would see them. Each
// session is one cookie jar and opens with the study's task steps: land on
// the collection, search "walnut", open the overview, refine by a course,
// take a pane suggestion. It then follows walkClicks seeded links, each
// one on the page the previous click ended on. It returns the clicks made
// and the first failure: a response outside 2xx/3xx, a missing link, or
// the replay running past replayBudget.
func replay(h http.Handler, sessions, concurrency int) (int64, error) {
	srv := httptest.NewServer(h)
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), replayBudget)
	defer cancel()

	var (
		next     atomic.Int64
		total    atomic.Int64
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= sessions || ctx.Err() != nil {
					return
				}
				clicks, err := replaySession(ctx, srv.URL, int64(1+i*7919))
				total.Add(int64(clicks))
				if err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("session %d: %w", i, err) })
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if wall := time.Since(start); firstErr == nil && wall > replayBudget {
		firstErr = fmt.Errorf("replay took %s, over its %s budget", wall, replayBudget)
	}
	return total.Load(), firstErr
}

// replayBrowser is one replayed user: a cookie jar, the links of the page
// it shows, and its seeded choices.
type replayBrowser struct {
	ctx    context.Context
	hc     *http.Client
	base   string
	rng    *rand.Rand
	links  []string
	clicks int
}

// replaySession runs one seeded session in a fresh browser and returns the
// clicks it made.
func replaySession(ctx context.Context, base string, seed int64) (int, error) {
	jar, err := cookiejar.New(nil)
	if err != nil {
		return 0, err
	}
	b := &replayBrowser{ctx: ctx, hc: &http.Client{Jar: jar}, base: base, rng: rand.New(rand.NewSource(seed))}
	err = b.session()
	return b.clicks, err
}

var hrefRE = regexp.MustCompile(`href="(/[^"#]*)"`)

// click requests target, following redirects, and makes the page it ends
// on the current one.
func (b *replayBrowser) click(target string) error {
	req, err := http.NewRequestWithContext(b.ctx, http.MethodGet, b.base+target, nil)
	if err != nil {
		return err
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("GET %s: %w", target, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 400 {
		return fmt.Errorf("GET %s = %d", target, resp.StatusCode)
	}
	b.clicks++
	b.links = b.links[:0]
	for _, m := range hrefRE.FindAllStringSubmatch(string(body), -1) {
		b.links = append(b.links, strings.ReplaceAll(m[1], "&amp;", "&"))
	}
	return nil
}

// follow clicks a seeded choice among the current page's links that match
// keep; it fails when the page has none.
func (b *replayBrowser) follow(what string, keep func(string) bool) error {
	var cands []string
	for _, l := range b.links {
		if keep(l) {
			cands = append(cands, l)
		}
	}
	if len(cands) == 0 {
		return fmt.Errorf("no %s link on the page", what)
	}
	return b.click(cands[b.rng.Intn(len(cands))])
}

func (b *replayBrowser) session() error {
	// Every page carries the search form, so the search follows the
	// landing page.
	for _, target := range []string{"/", "/search?q=walnut"} {
		if err := b.click(target); err != nil {
			return err
		}
	}
	steps := []struct {
		what string
		keep func(string) bool
	}{
		{"overview", func(l string) bool { return l == "/overview" }},
		{"course refinement", func(l string) bool {
			u, err := url.Parse(l)
			return err == nil && u.Path == "/refine" && u.Query().Get("prop") == string(recipes.PropCourse)
		}},
		{"pane suggestion", func(l string) bool { return strings.HasPrefix(l, "/go?") }},
	}
	for _, st := range steps {
		if err := b.follow(st.what, st.keep); err != nil {
			return err
		}
	}
	anyLink := func(string) bool { return true }
	for i := 0; i < walkClicks; i++ {
		if err := b.follow("walk", anyLink); err != nil {
			return err
		}
	}
	return nil
}

func quietServer(m *core.Magnet) *Server {
	return NewServer(m, WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
}

// TestReplaySessions is the serving-load gate: seeded study sessions at
// concurrency 8 against one shared instance through the real handlers.
// Under -race it catches session-concurrency races that single-request
// tests are too small to hit.
func TestReplaySessions(t *testing.T) {
	g := recipes.Build(recipes.Config{Recipes: 400, Seed: 1})
	m := core.Open(g, core.Options{})
	defer m.Close()
	start := time.Now()
	clicks, err := replay(quietServer(m), 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("40 sessions, %d clicks at concurrency 8 in %s (budget %s)", clicks, time.Since(start).Round(time.Millisecond), replayBudget)
}

// TestReplayReportsFailures is the replay's negative control: a server
// that fails one route must fail the replay.
func TestReplayReportsFailures(t *testing.T) {
	g := recipes.Build(recipes.Config{Recipes: 200, Seed: 1})
	m := core.Open(g, core.Options{})
	defer m.Close()
	h := quietServer(m)
	failing := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/overview" {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		h.ServeHTTP(w, r)
	})
	_, err := replay(failing, 4, 2)
	if err == nil || !strings.Contains(err.Error(), "= 500") {
		t.Fatalf("replay over a server failing /overview: err = %v, want a 500 failure", err)
	}
}
