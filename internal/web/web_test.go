package web

import (
	"fmt"
	"html"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/datasets/states"
	"magnet/internal/rdf"
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
	for _, q := range []string{"lo=abc", "lo=NaN", "hi=Inf", "lo=-Inf&hi=4", "lo=1e400"} {
		if code, _ := cl.get("/range?prop=x&" + q); code != http.StatusBadRequest {
			t.Errorf("bad range %s = %d", q, code)
		}
	}
	if code, _ := cl.get("/go?k=doesnotexist"); code != http.StatusGone {
		t.Errorf("expired suggestion = %d", code)
	}
	if code, _ := cl.get("/nosuchpage"); code != http.StatusNotFound {
		t.Errorf("404 = %d", code)
	}
}

// pageRows returns the item IRIs a collection page lists, in page order.
func pageRows(t *testing.T, body string) []rdf.IRI {
	t.Helper()
	i := strings.Index(body, "<main>")
	if i < 0 {
		t.Fatalf("no <main> in:\n%.1000s", body)
	}
	var rows []rdf.IRI
	for _, m := range rowLink.FindAllStringSubmatch(body[i:], -1) {
		iri, err := url.QueryUnescape(html.UnescapeString(m[1]))
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, rdf.IRI(iri))
	}
	return rows
}

var rowLink = regexp.MustCompile(`<li><a href="/open\?item=([^"]+)">`)

// The collection page shows the first 40 members in display order with
// the full total; a similar-items view keeps the model's score order; the
// overview counts the whole view.
func TestCollectionPageRowsAndTotals(t *testing.T) {
	m, cl := recipeServer(t)
	body := cl.mustGet("/")
	rows := pageRows(t, body)
	if len(rows) != 40 {
		t.Fatalf("home page lists %d rows, want 40", len(rows))
	}
	if !reflect.DeepEqual(rows, m.Items()[:40]) {
		t.Errorf("home rows = %v, want the first 40 items %v", rows, m.Items()[:40])
	}
	if want := fmt.Sprintf("<h2>%d items</h2>", m.NumItems()); !strings.Contains(body, want) {
		t.Errorf("home page lacks the total %q", want)
	}

	item := m.Graph().SubjectsOfType(recipes.ClassRecipe)[0]
	cl.mustGet("/open?item=" + url.QueryEscape(string(item)))
	body = cl.mustGet("/go?k=" + url.QueryEscape("simitem:"+string(item)))
	rows = pageRows(t, body)
	var want []rdf.IRI
	for _, sc := range m.Model().SimilarToItem(item, len(rows)) {
		want = append(want, m.Graph().SubjectByID(sc.ID))
	}
	if len(rows) < 2 || sort.SliceIsSorted(want, func(i, j int) bool { return want[i] < want[j] }) {
		t.Fatalf("precondition: %d similar rows in lexical order cannot show the score order", len(rows))
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("similar rows = %v, want SimilarToItem order %v", rows, want)
	}
	if ov := cl.mustGet("/overview"); !strings.Contains(ov, fmt.Sprintf("Overview of %d items", len(rows))) {
		t.Errorf("similar-view overview lacks the total %d", len(rows))
	}

	cl.mustGet("/search?q=walnut")
	s := m.NewSession()
	s.Search("walnut")
	if ov := cl.mustGet("/overview"); !strings.Contains(ov, fmt.Sprintf("Overview of %d items", s.Current().Len())) {
		t.Errorf("walnut overview lacks the total %d", s.Current().Len())
	}
}
