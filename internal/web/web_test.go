package web

import (
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"testing"

	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/datasets/states"
)

// client wraps an httptest server with a cookie jar so a test acts like one
// browser session.
type client struct {
	t   *testing.T
	srv *httptest.Server
	c   *http.Client
}

func newClient(t *testing.T, m *core.Magnet) *client {
	t.Helper()
	srv := httptest.NewServer(NewServer(m))
	t.Cleanup(srv.Close)
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &client{t: t, srv: srv, c: &http.Client{Jar: jar}}
}

func (cl *client) get(path string) (int, string) {
	cl.t.Helper()
	resp, err := cl.c.Get(cl.srv.URL + path)
	if err != nil {
		cl.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		cl.t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func (cl *client) mustGet(path string, wants ...string) string {
	cl.t.Helper()
	code, body := cl.get(path)
	if code != http.StatusOK {
		cl.t.Fatalf("GET %s = %d", path, code)
	}
	for _, w := range wants {
		if !strings.Contains(body, w) {
			cl.t.Fatalf("GET %s missing %q in:\n%.2000s", path, w, body)
		}
	}
	return body
}

func recipeServer(t *testing.T) (*core.Magnet, *client) {
	t.Helper()
	gb := recipes.Build(recipes.Config{Recipes: 400, Seed: 1})
	m := core.Open(gb, core.Options{})
	return m, newClient(t, m)
}

func TestHomePageRendersCollectionAndPane(t *testing.T) {
	_, cl := recipeServer(t)
	body := cl.mustGet("/", "items", "(all items)", "Refine Collections")
	if !strings.Contains(body, "/open?item=") {
		t.Error("no item links")
	}
}

func TestSearchAndConstraintLifecycle(t *testing.T) {
	_, cl := recipeServer(t)
	body := cl.mustGet("/search?q=walnut", `contains &#34;walnut&#34;`)
	if !strings.Contains(body, "/rm?i=0") || !strings.Contains(body, "/neg?i=0") {
		t.Error("constraint chips missing remove/negate links")
	}
	// Negate, then remove.
	cl.mustGet("/neg?i=0", "NOT contains")
	body = cl.mustGet("/rm?i=0", "(all items)")
	_ = body
}

func TestFollowRefinementSuggestion(t *testing.T) {
	_, cl := recipeServer(t)
	body := cl.mustGet("/search?q=walnut")
	// Extract the first /go link.
	re := regexp.MustCompile(`/go\?k=([^"&]+)"`)
	match := re.FindStringSubmatch(body)
	if match == nil {
		t.Fatal("no suggestion links")
	}
	after := cl.mustGet("/go?k=" + match[1])
	if strings.Contains(after, "suggestion expired") {
		t.Fatal("suggestion key did not resolve")
	}
}

func TestExcludeModeThroughWeb(t *testing.T) {
	_, cl := recipeServer(t)
	body := cl.mustGet("/search?q=walnut")
	// Find a refine suggestion that has mode links.
	re := regexp.MustCompile(`/go\?k=([^"&]+)&(?:amp;)?mode=exclude`)
	match := re.FindStringSubmatch(body)
	if match == nil {
		t.Fatal("no exclude links")
	}
	after := cl.mustGet("/go?k="+match[1]+"&mode=exclude", "NOT ")
	_ = after
}

func TestOpenItemCard(t *testing.T) {
	m, cl := recipeServer(t)
	item := m.Graph().SubjectsOfType(recipes.ClassRecipe)[0]
	body := cl.mustGet("/open?item="+url.QueryEscape(string(item)), "ingredient")
	if !strings.Contains(body, m.Label(item)) {
		t.Error("item label missing")
	}
	// Similar-by-content section with explanations.
	if !strings.Contains(body, "Similar by content") {
		t.Error("similar section missing")
	}
	// Unknown item: 404.
	if code, _ := cl.get("/open?item=http://nope"); code != http.StatusNotFound {
		t.Errorf("unknown item = %d", code)
	}
}

func TestOverviewPage(t *testing.T) {
	_, cl := recipeServer(t)
	body := cl.mustGet("/overview", "Overview of", "cuisine")
	// Values are clickable refinements (Figure 2's purpose).
	re := regexp.MustCompile(`/refine\?prop=([^"&]+)&(?:amp;)?vk=([^"&]+)"`)
	match := re.FindStringSubmatch(body)
	if match == nil {
		t.Fatal("overview values are not clickable")
	}
	after := cl.mustGet("/refine?prop=" + match[1] + "&vk=" + match[2])
	if !strings.Contains(after, `title="remove"`) {
		t.Error("clicking an overview value should add a constraint chip")
	}
}

func TestRefineEndpointModesAndErrors(t *testing.T) {
	m, cl := recipeServer(t)
	prop := url.QueryEscape(string(recipes.PropCuisine))
	vk := url.QueryEscape(recipes.Cuisine("Greek").Key())
	body := cl.mustGet("/refine?prop="+prop+"&vk="+vk+"&mode=exclude", "NOT cuisine")
	_ = body
	_ = m
	if code, _ := cl.get("/refine?prop=&vk=" + vk); code != http.StatusBadRequest {
		t.Errorf("missing prop = %d", code)
	}
	if code, _ := cl.get("/refine?prop=" + prop + "&vk=notakey"); code != http.StatusBadRequest {
		t.Errorf("bad value key = %d", code)
	}
}

func TestRangeWidgetFlow(t *testing.T) {
	gb, err := states.Build()
	if err != nil {
		t.Fatal(err)
	}
	states.Annotate(gb)
	m := core.Open(gb, core.Options{IndexAllSubjects: true})
	cl := newClient(t, m)

	body := cl.mustGet("/")
	re := regexp.MustCompile(`/go\?k=(range[^"&]*)"`)
	match := re.FindStringSubmatch(body)
	if match == nil {
		t.Fatalf("no range suggestion link in:\n%.1500s", body)
	}
	widget := cl.mustGet("/go?k="+match[1], "Apply range", "observed range")
	_ = widget
	// Apply bounds over big states.
	prop := url.QueryEscape(string(states.PropArea))
	after := cl.mustGet("/range?prop="+prop+"&lo=100000&hi=", " items")
	if !strings.Contains(after, "in [100000") && !strings.Contains(after, "≥ 100000") {
		t.Errorf("range constraint missing:\n%.1200s", after)
	}
}

func TestBackAndHome(t *testing.T) {
	_, cl := recipeServer(t)
	cl.mustGet("/search?q=walnut")
	cl.mustGet("/back", "(all items)")
	cl.mustGet("/search?q=salad")
	cl.mustGet("/home", "(all items)")
}

func TestSessionsAreIndependent(t *testing.T) {
	gb := recipes.Build(recipes.Config{Recipes: 200, Seed: 1})
	m := core.Open(gb, core.Options{})
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	jarA, _ := cookiejar.New(nil)
	jarB, _ := cookiejar.New(nil)
	a := &http.Client{Jar: jarA}
	b := &http.Client{Jar: jarB}

	if _, err := a.Get(srv.URL + "/search?q=walnut"); err != nil {
		t.Fatal(err)
	}
	resp, err := b.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "walnut") {
		t.Error("session B saw session A's query")
	}
}

func TestBadRequests(t *testing.T) {
	_, cl := recipeServer(t)
	if code, _ := cl.get("/rm?i=notanumber"); code != http.StatusBadRequest {
		t.Errorf("bad rm = %d", code)
	}
	if code, _ := cl.get("/range?prop=x&lo=abc"); code != http.StatusBadRequest {
		t.Errorf("bad range = %d", code)
	}
	if code, _ := cl.get("/go?k=doesnotexist"); code != http.StatusGone {
		t.Errorf("expired suggestion = %d", code)
	}
	if code, _ := cl.get("/nosuchpage"); code != http.StatusNotFound {
		t.Errorf("404 = %d", code)
	}
}
