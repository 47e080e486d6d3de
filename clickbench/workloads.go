package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"
	"regexp"
	"strconv"
	"strings"
)

// workload is one traffic mix: how sessions behave, how many closed-loop
// clients run them, and how the server is started.
type workload struct {
	name    string
	clients int
	warmup  int // untimed sessions run first, to fill the vector and plan caches
	// pool is the number of distinct sessions the workload draws from, each
	// with a recorded page digest, so any seed's draw can be checked. It is
	// a little larger than a run needs: seeds vary the sessions measured,
	// while most of the work stays common to every run.
	pool     int
	segments bool // serve from a magnet-build segment set instead of in-memory
	session  func(ctx context.Context, b *browser, rng *rand.Rand) error
}

var workloads = []*workload{
	{
		// The paper's study tasks on 2 contending clients: the only /go
		// clicks, plan-cache deltas and Server.mu contention.
		name:    "study-tasks",
		clients: 2,
		warmup:  2,
		pool:    55,
		session: studySession,
	},
	{
		// Overview and refine cycles on 500+ item collections: pane and
		// facet cost on large collections, query work near zero.
		name:    "broad-overview",
		clients: 1,
		warmup:  2,
		pool:    50,
		session: broadSession,
	},
	{
		// Item-to-item hops on the segment read path: vector search, item
		// analysts and web overhead on small pages.
		name:     "item-similar",
		clients:  1,
		warmup:   4,
		pool:     55,
		segments: true,
		session:  itemSession,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sessionRNG seeds a pool session's choices from the workload and its pool
// index alone, so the same session clicks the same way in every run.
func sessionRNG(w *workload, idx int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", w.name, idx)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// pick returns a uniformly chosen element of xs, or "" when xs is empty.
func pick(rng *rand.Rand, xs []string) string {
	if len(xs) == 0 {
		return ""
	}
	return xs[rng.Intn(len(xs))]
}

func firstN(xs []string, n int) []string {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

// clickIf clicks target unless it is empty (no such link on the page).
func (b *browser) clickIf(ctx context.Context, target string) error {
	if target == "" {
		return nil
	}
	return b.click(ctx, target)
}

// expect checks the current page is of the given kind; if not, the click
// that led to it fails its page check.
func (b *browser) expect(kind string) error {
	if b.cur.kind != kind {
		return b.failPage("got a %s page, want %s", b.cur.kind, kind)
	}
	return nil
}

// failPage turns the last click, which completed, into a failed one: its
// page failed a check.
func (b *browser) failPage(format string, args ...any) error {
	b.lat = b.lat[:len(b.lat)-1]
	b.failed++
	return fmt.Errorf("session %d: click failed: %s: %s", b.session, b.cur.path, fmt.Sprintf(format, args...))
}

// expectConstraints checks the current page is a collection whose query
// shows exactly the given constraints; if not, the click that led to it
// fails its page check.
func (b *browser) expectConstraints(want ...string) error {
	got := []string{}
	for _, m := range constraintRE.FindAllStringSubmatch(b.cur.body, -1) {
		got = append(got, m[1])
	}
	if b.cur.kind != "collection" || strings.Join(got, "\n") != strings.Join(want, "\n") {
		return b.failPage("constraints %q, want %q", got, want)
	}
	return nil
}

var constraintRE = regexp.MustCompile(`<span class="constraint">([^\n<]*)`)

// openLink returns the page's /open link for item, or "" when the page
// does not link to it.
func (p *page) openLink(item string) string {
	for _, l := range p.linksWithPrefix("/open?item=") {
		if v, err := url.QueryUnescape(strings.TrimPrefix(l, "/open?item=")); err == nil && v == item {
			return l
		}
	}
	return ""
}

// refineLink returns the overview page's /refine link for the facet value
// with the given label, or "" when the page has none.
func (p *page) refineLink(facet, label string) string {
	rows, _ := p.facetValues()
	for _, r := range rows {
		if r.facet == facet && r.label == label {
			return r.href
		}
	}
	return ""
}

// suggestionLink returns the /go link of the pane suggestion in group with
// the given title (any title when title is empty), or "" when the pane has
// none.
func (p *page) suggestionLink(group, title string) string {
	for _, s := range p.suggestions() {
		if s.group == group && (title == "" || s.title == title) {
			return s.href
		}
	}
	return ""
}

// similarSection returns the part of an item page that lists the items
// similar to it.
func similarSection(body string) string {
	_, similar, _ := strings.Cut(body, "<h2>Similar by content</h2>")
	return similar
}

// suggestion is one navigation-pane entry: its group heading, title and
// /go link.
type suggestion struct {
	group, title, href string
}

var paneRE = regexp.MustCompile(`<h3>([^<]*)</h3>|<a href="(/go\?k=[^"]*)">([^<]*)</a>`)

func (p *page) suggestions() []suggestion {
	var out []suggestion
	group := ""
	for _, m := range paneRE.FindAllStringSubmatch(p.body, -1) {
		if m[1] != "" {
			group = m[1]
			continue
		}
		out = append(out, suggestion{group: group, title: m[3], href: strings.ReplaceAll(m[2], "&amp;", "&")})
	}
	return out
}

// facetValue is one row of the overview page: a /refine link and the
// number of items that value covers.
type facetValue struct {
	facet, label, href string
	count              int
}

var (
	overviewTotalRE = regexp.MustCompile(`<h2>Overview of (\d+) items</h2>`)
	facetRowRE      = regexp.MustCompile(`<a href="(/refine[^"]*)">([^<]*)</a></td>\n<td>(\d+)</td>`)
)

// facetValues parses an overview page into its rows and the collection size.
func (p *page) facetValues() (rows []facetValue, total int) {
	if m := overviewTotalRE.FindStringSubmatch(p.body); m != nil {
		total, _ = strconv.Atoi(m[1])
	}
	for _, chunk := range strings.Split(p.body, "<h3>")[1:] {
		facet, _, _ := strings.Cut(chunk, " <span")
		for _, m := range facetRowRE.FindAllStringSubmatch(chunk, -1) {
			n, _ := strconv.Atoi(m[3])
			rows = append(rows, facetValue{facet: facet, label: m[2], href: strings.ReplaceAll(m[1], "&amp;", "&"), count: n})
		}
	}
	return rows, total
}

// studyTarget is simuser's task-1 target, the aunt's walnut recipe, on
// the 6,444-recipe corpus: the recipe simuser.NewReplay(m).Target() picks
// (a walnut recipe with four to six ingredients and a related nut-free
// neighbourhood closest to the task's wanted size). It is a Greek
// appetizer; studyTargetCourse is the dish kind simuser's users remember
// and refine by. The walnut search lists 158 recipes and a page shows the
// first 40, so the user narrows by course before the target is on the page.
const (
	studyTarget       = "http://magnet.example.org/recipes#recipe/05680"
	studyTargetCourse = "Appetizer"
)

// menuCourses are simuser's task-2 menu slots, in its order: soup or
// appetizer, salad, dessert, main.
var menuCourses = [][]string{{"Soup", "Appetizer"}, {"Salad"}, {"Dessert"}, {"Main"}}

// similarDetour is simuser's chance, per task-2 course, that a user opens
// a picked dish and asks for similar recipes.
const similarDetour = 0.35

// studySession is one study participant on the complete system: land on
// the collection page, then do simuser's task 1 and task 2 as the requests
// the pages' own links make.
func studySession(ctx context.Context, b *browser, rng *rand.Rand) error {
	if err := b.click(ctx, "/"); err != nil {
		return err
	}
	if err := studyTask1(ctx, b, rng); err != nil {
		return err
	}
	return studyTask2(ctx, b, rng)
}

// studyTask1 is simuser's walnut-recipe task on its similarity path: search
// "walnut", narrow by the target's course from the overview, open the
// target, take its pane's Similar by Content suggestion, exclude the Nuts
// ingredient group, open one or two of the nut-free results, then go back
// to the query, negate its newest constraint, remove its oldest and go
// back once more.
func studyTask1(ctx context.Context, b *browser, rng *rand.Rand) error {
	for _, target := range []string{"/search?q=walnut", "/overview"} {
		if err := b.click(ctx, target); err != nil {
			return err
		}
	}
	if err := b.click(ctx, b.cur.refineLink("course", studyTargetCourse)); err != nil {
		return err
	}
	if err := b.click(ctx, b.cur.openLink(studyTarget)); err != nil {
		return err
	}
	if err := b.expect("item"); err != nil {
		return err
	}
	if err := b.click(ctx, "/"); err != nil {
		return err
	}
	if err := b.click(ctx, b.cur.suggestionLink("Similar by Content", "")); err != nil {
		return err
	}
	if err := b.click(ctx, b.cur.suggestionLink("ingredient · group", "Nuts")+"&mode=exclude"); err != nil {
		return err
	}
	cands := b.cur.linksWithPrefix("/open?item=")
	for i, opens := 0, 1+rng.Intn(2); i < opens && len(cands) > 0; i++ {
		j := rng.Intn(len(cands))
		if err := b.click(ctx, cands[j]); err != nil {
			return err
		}
		cands = withPrefix(linksIn(similarSection(b.cur.body)), "/open?item=")
	}
	if err := b.click(ctx, "/back"); err != nil {
		return err
	}
	if negs := b.cur.linksWithPrefix("/neg?i="); len(negs) > 0 {
		if err := b.click(ctx, negs[len(negs)-1]); err != nil {
			return err
		}
	}
	if rms := b.cur.linksWithPrefix("/rm?i="); len(rms) > 0 {
		if err := b.click(ctx, rms[0]); err != nil {
			return err
		}
	}
	return b.click(ctx, "/back")
}

// studyTask2 is simuser's Mexican-menu task: set the Mexican cuisine (all
// items, the overview, the cuisine value), then for each menu course
// refine by it from the overview; with simuser's detour probability open
// one of the listed dishes and follow its Similar by Content suggestion;
// then go back to the Mexican collection for the next course.
func studyTask2(ctx context.Context, b *browser, rng *rand.Rand) error {
	for _, target := range []string{"/home", "/overview"} {
		if err := b.click(ctx, target); err != nil {
			return err
		}
	}
	if err := b.click(ctx, b.cur.refineLink("cuisine", "Mexican")); err != nil {
		return err
	}
	for _, alts := range menuCourses {
		course := alts[rng.Intn(len(alts))]
		if err := b.click(ctx, "/overview"); err != nil {
			return err
		}
		if err := b.click(ctx, b.cur.refineLink("course", course)); err != nil {
			return err
		}
		if rng.Float64() < similarDetour {
			if err := b.click(ctx, pick(rng, firstN(b.cur.linksWithPrefix("/open?item="), 10))); err != nil {
				return err
			}
			if err := b.click(ctx, "/"); err != nil {
				return err
			}
			if err := b.click(ctx, b.cur.suggestionLink("Similar by Content", "")); err != nil {
				return err
			}
		}
		if err := b.click(ctx, "/back"); err != nil {
			return err
		}
		if err := b.expectConstraints("cuisine = Mexican"); err != nil {
			return err
		}
	}
	return nil
}

// broadSession lands on all items, refines to a large base collection
// from the overview, then cycles: overview, refine by a value covering 500
// or more items, overview, back to the collection, remove the refinement.
func broadSession(ctx context.Context, b *browser, rng *rand.Rand) error {
	refine := func(min int) error {
		rows, total := b.cur.facetValues()
		var cands []string
		best := facetValue{}
		for _, r := range rows {
			if r.count >= total {
				continue // refining by it would not narrow the collection
			}
			if r.count >= min {
				cands = append(cands, r.href)
			}
			if r.count > best.count {
				best = r
			}
		}
		target := pick(rng, cands)
		if target == "" {
			target = best.href
		}
		return b.clickIf(ctx, target)
	}
	for _, target := range []string{"/", "/overview"} {
		if err := b.click(ctx, target); err != nil {
			return err
		}
	}
	if err := refine(1000); err != nil {
		return err
	}
	for cycle := 0; cycle < 5; cycle++ {
		if err := b.click(ctx, "/overview"); err != nil {
			return err
		}
		if err := refine(500); err != nil {
			return err
		}
		for _, target := range []string{"/overview", "/"} {
			if err := b.click(ctx, target); err != nil {
				return err
			}
		}
		rms := b.cur.linksWithPrefix("/rm?i=")
		if len(rms) < 2 {
			return nil
		}
		if err := b.click(ctx, rms[len(rms)-1]); err != nil {
			return err
		}
	}
	return nil
}

// corpusRecipes is the paper's recipe corpus size (§6), served by every
// workload.
const corpusRecipes = 6444

// itemSession arrives on a recipe's page from outside, then hops from item
// to item through the page's similar links, viewing the item's pane ("to
// collection & suggestions") every few hops.
func itemSession(ctx context.Context, b *browser, rng *rand.Rand) error {
	iri := fmt.Sprintf("http://magnet.example.org/recipes#recipe/%05d", rng.Intn(corpusRecipes))
	if err := b.click(ctx, "/open?item="+url.QueryEscape(iri)); err != nil {
		return err
	}
	for hop := 0; hop < 20; hop++ {
		if err := b.expect("item"); err != nil {
			return err
		}
		if hop > 0 && rng.Intn(4) == 0 {
			if err := b.click(ctx, "/"); err != nil {
				return err
			}
			if err := b.clickIf(ctx, pick(rng, b.cur.linksWithPrefix("/open?item="))); err != nil {
				return err
			}
			continue
		}
		cands := withPrefix(linksIn(similarSection(b.cur.body)), "/open?item=")
		if len(cands) == 0 {
			cands = b.cur.linksWithPrefix("/open?item=")
		}
		if len(cands) == 0 {
			return nil
		}
		if err := b.click(ctx, pick(rng, cands)); err != nil {
			return err
		}
	}
	return nil
}
