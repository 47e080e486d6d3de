package web

import (
	"io"
	"net/http"
	"net/http/cookiejar"
	"sync"
	"testing"

	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
)

// TestConcurrentRequests drives the server from many browser sessions at
// once — mixed reads and state-mutating navigation — so -race validates the
// session map ('guarded by mu') and everything a request touches downstream
// (blackboard, history, index).
func TestConcurrentRequests(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 200, Seed: 1})
	m := core.Open(gb, core.Options{})
	cl := newClient(t, m)

	paths := []string{
		"/",
		"/search?q=walnut",
		"/search?q=cuisine+%3D+Greek",
		"/overview",
		"/back",
		"/home",
	}
	const workers = 6
	const iters = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker is its own browser: a separate cookie jar forces
			// separate server-side sessions created concurrently.
			jar, err := cookiejar.New(nil)
			if err != nil {
				t.Error(err)
				return
			}
			hc := &http.Client{Jar: jar}
			for i := 0; i < iters; i++ {
				path := paths[(w+i)%len(paths)]
				resp, err := hc.Get(cl.srv.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Errorf("read %s: %v", path, err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s = %d (worker %d)", path, resp.StatusCode, w)
				}
			}
		}(w)
	}
	wg.Wait()
}
