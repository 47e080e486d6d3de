package web

import (
	"bytes"
	"context"
	"html/template"
	"math"
	"testing"

	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/query"
)

// The templates below are the pages as html/template wrote them before the
// hand-written writers in pages.go replaced them. They are kept as the
// oracle: for any view, a writer's bytes must equal its template's.

var collectionTemplate = template.Must(template.New("collection").Parse(
	`<!doctype html><title>{{.Title}}</title>` + baseCSS + `
<nav>
<h1>{{.Title}}</h1>` + searchBar + `
<h2>Query</h2>
{{if .Constraints}}{{range .Constraints}}
<span class="constraint">{{.Text}}
<a href="/rm?i={{.Index}}" title="remove">✕</a>
<a href="/neg?i={{.Index}}" title="negate">¬</a></span>
{{end}}{{else}}<span class="detail">(all items)</span>{{end}}
{{range .Sections}}
<h2>{{.Advisor}}</h2>
{{range .Groups}}{{if .Title}}<h3>{{.Title}}</h3>{{end}}
<ul>
{{range .Suggestions}}<li><a href="/go?k={{.Key}}">{{.Title}}</a>
{{if .Detail}}<span class="detail">({{.Detail}})</span>{{end}}
{{if .IsRefine}}<span class="modes"><a href="/go?k={{.Key}}&mode=exclude">not</a><a href="/go?k={{.Key}}&mode=expand">or</a></span>{{end}}</li>
{{end}}
{{if .Omitted}}<li class="detail">… {{.Omitted}} more</li>{{end}}
</ul>
{{end}}{{end}}
</nav>
<main>
<h2>{{.Total}} items</h2>
<ul>
{{range .Items}}<li><a href="/open?item={{.IRI}}">{{.Label}}</a></li>{{end}}
{{if gt .Total (len .Items)}}<li class="detail">… showing first {{len .Items}}</li>{{end}}
</ul>
</main>`))

var itemTemplate = template.Must(template.New("item").Parse(
	`<!doctype html><title>{{.Label}}</title>` + baseCSS + `
<nav><h1>{{.Label}}</h1>` + searchBar + `<p class="detail">{{.IRI}}</p>
<p><a href="/">← to collection &amp; suggestions</a></p></nav>
<main>
<h2>{{.Label}}</h2>
<table>
{{range .Attributes}}<tr><td><b>{{.Prop}}</b></td><td>
{{range .Values}}{{if .IRI}}<a href="/open?item={{.IRI}}">{{.Label}}</a> {{else}}{{.Label}} {{end}}{{end}}
</td></tr>{{end}}
</table>
{{if .Similar}}
<h2>Similar by content</h2>
<ul>
{{range .Similar}}<li><a href="/open?item={{.IRI}}">{{.Label}}</a>
<span class="detail">{{.Score}} — {{.Why}}</span></li>{{end}}
</ul>
{{end}}
</main>`))

var overviewTemplate = template.Must(template.New("overview").Parse(
	`<!doctype html><title>Overview</title>` + baseCSS + `
<nav><h1>Overview</h1>` + searchBar + `<p><a href="/">← back to collection</a></p></nav>
<main>
<h2>Overview of {{.Total}} items</h2>
{{range .Facets}}
<h3>{{.Label}} <span class="detail">({{.Distinct}} values)</span></h3>
<table>
{{range .Values}}<tr><td><a href="/refine?prop={{.Prop}}&vk={{.Key}}">{{.Label}}</a></td>
<td>{{.Count}}</td>
<td><span class="bar" style="width:{{.Width}}px"></span></td></tr>{{end}}
</table>
{{end}}
</main>`))

var rangeTemplate = template.Must(template.New("range").Parse(
	`<!doctype html><title>{{.Title}}</title>` + baseCSS + `
<nav><h1>{{.Title}}</h1>` + searchBar + `<p><a href="/">← back</a></p></nav>
<main>
<h2>{{.Title}}</h2>
<p class="detail">observed range: {{.Min}} — {{.Max}}</p>
<p>{{range .Buckets}}<span class="bar" style="width:8px;height:{{. }}px"></span> {{end}}</p>
<form action="/range" method="get">
<input type="hidden" name="prop" value="{{.Prop}}">
from <input type="text" name="lo" value="{{.Min}}">
to <input type="text" name="hi" value="{{.Max}}">
<button>Apply range</button>
</form>
</main>`))

// pageCase is one view with its writer and its oracle template.
type pageCase struct {
	name  string
	tmpl  *template.Template
	data  any
	write func([]byte) []byte
}

func collectionCase(name string, v collectionView) pageCase {
	return pageCase{name, collectionTemplate, v, v.appendPage}
}

func itemCase(name string, v itemView) pageCase {
	return pageCase{name, itemTemplate, v, v.appendPage}
}

func overviewCase(name string, v overviewView) pageCase {
	return pageCase{name, overviewTemplate, v, v.appendPage}
}

func rangeCase(name string, v rangeView) pageCase {
	return pageCase{name, rangeTemplate, v, v.appendPage}
}

// check fails t unless the writer's page equals the template's.
func (c pageCase) check(t *testing.T) {
	t.Helper()
	var want bytes.Buffer
	if err := c.tmpl.Execute(&want, c.data); err != nil {
		t.Fatalf("%s: template: %v", c.name, err)
	}
	got := c.write(nil)
	if bytes.Equal(got, want.Bytes()) {
		return
	}
	i := 0
	for i < len(got) && i < len(want.Bytes()) && got[i] == want.Bytes()[i] {
		i++
	}
	from := max(i-60, 0)
	t.Errorf("%s: writer and template differ at byte %d (lengths %d, %d)\nwriter:   %q\ntemplate: %q",
		c.name, i, len(got), want.Len(), got[from:min(i+60, len(got))], want.Bytes()[from:min(i+60, want.Len())])
}

// studyPages walks one session over m through the page kinds the server
// renders and returns each page's view: the home pane, a refined, an
// excluded and a negated query, keyword searches (one typed with markup
// characters), a fixed collection from a pane suggestion, overviews, an
// item card and a range widget from a ShowRange suggestion.
func studyPages(tb testing.TB, m *core.Magnet) []pageCase {
	tb.Helper()
	s := NewServer(m)
	sess := m.NewSession()
	var cases []pageCase
	collection := func(name string) {
		cases = append(cases, collectionCase(name, s.collectionData(sess)))
	}
	findAction := func(keep func(blackboard.Action) bool) blackboard.Suggestion {
		tb.Helper()
		for _, sg := range sess.Board().Suggestions() {
			if keep(sg.Action) {
				return sg
			}
		}
		tb.Fatalf("no matching suggestion on %q", sess.Current().Key())
		return blackboard.Suggestion{}
	}

	sess.GoHome()
	collection("home")
	cases = append(cases, overviewCase("home overview", s.overviewData(sess)))
	sg := findAction(func(a blackboard.Action) bool { _, ok := a.(blackboard.ShowRange); return ok })
	cases = append(cases, rangeCase("range", s.rangeData(sg.Title, sg.Action.(blackboard.ShowRange))))

	sess.Refine(query.Property{Prop: recipes.PropCuisine, Value: recipes.Cuisine("Greek")}, blackboard.Filter)
	collection("refined")
	sess.Refine(query.Property{Prop: recipes.PropIngredient, Value: recipes.Ingredient("Walnuts")}, blackboard.Exclude)
	collection("excluded")
	sess.NegateConstraint(0)
	collection("negated")
	sess.SearchWithin(`walnut + "honey" <b>`)
	collection("search within, with markup")

	sess.Search("walnut")
	collection("keyword")
	cases = append(cases, overviewCase("keyword overview", s.overviewData(sess)))
	sg = findAction(func(a blackboard.Action) bool { _, ok := a.(blackboard.GoToCollection); return ok })
	if err := sess.Apply(sg.Action); err != nil {
		tb.Fatal(err)
	}
	collection("fixed")

	item := m.Graph().SubjectByID(sess.Current().Members()[0])
	sess.OpenItem(item)
	cases = append(cases, itemCase("item", s.itemData(context.Background(), item)))
	collection("item pane")
	return cases
}

// TestPagesMatchTemplates renders real views from a recipe corpus through
// both the page writers and the templates they replaced, and requires the
// same bytes.
func TestPagesMatchTemplates(t *testing.T) {
	m := core.Open(recipes.Build(recipes.Config{Recipes: 400, Seed: 1}), core.Options{})
	t.Cleanup(m.Close)
	for _, c := range studyPages(t, m) {
		c.check(t)
	}
}

// FuzzPageWriters fills every view from fuzzed strings, ints and floats,
// so each escaping context meets NUL, +, quotes, <>&, non-ASCII and
// invalid UTF-8, negative and zero counts, and NaN and infinite bounds,
// and requires each writer's bytes to equal its template's.
func FuzzPageWriters(f *testing.F) {
	f.Add("Magnet", "cuisine: Greek", "http://magnet.example/recipe/00001", 0, 40, 1.0, 12.0)
	f.Add("a\x00b+c\"d'e<f>g&h", "100% ß→✕ ~-._", "\xff\xfe\xc3(", -3, 0, math.NaN(), math.Inf(1))
	f.Add("", " ", "=?#/&;:@", 1, -1, math.Inf(-1), 1e21)
	f.Add("<script>alert(1)</script>", "--", " ﷐�", 7, 6, -0.0, 1e-7)
	f.Fuzz(func(t *testing.T, s1, s2, s3 string, n1, n2 int, x1, x2 float64) {
		full := collectionView{
			Title:       s1,
			Constraints: []constraintView{{n1, s2}, {n2, s3}},
			Items:       []itemLink{{s3, s1}, {s1, s2}},
			Total:       n2,
			Sections: []sectionView{{Advisor: s2, Groups: []groupView{
				{Title: s3, Omitted: n1, Suggestions: []suggestionView{
					{Key: s1, Title: s2, Detail: s3, IsRefine: n1%2 == 0},
					{Key: s3, Title: s1, Detail: "", IsRefine: n1%2 != 0},
				}},
				{Title: "", Omitted: 0},
			}}},
		}
		collectionCase("collection", full).check(t)
		collectionCase("empty collection", collectionView{Title: s1, Total: n1}).check(t)

		item := itemView{
			Label: s1,
			IRI:   s2,
			Attributes: []attributeView{
				{Prop: s3, Values: []itemLink{{s1, s2}, {"", s3}}},
				{Prop: s1},
			},
			Similar: []similarView{{IRI: s2, Label: s3, Score: s1, Why: s2}},
		}
		itemCase("item", item).check(t)
		itemCase("bare item", itemView{Label: s3, IRI: s1}).check(t)

		overviewCase("overview", overviewView{Total: n1, Facets: []facetView{
			{Label: s1, Distinct: n2, Values: []facetValueView{{Label: s2, Count: n1, Width: n2, Prop: s3, Key: s1}}},
			{Label: s2},
		}}).check(t)

		rangeCase("range", rangeView{Title: s1, Prop: s2, Min: x1, Max: x2, Buckets: []int{n1, n2, 0}}).check(t)
	})
}
