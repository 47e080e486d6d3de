package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"net/http"
	"net/http/cookiejar"
	"regexp"
	"strings"
	"sync/atomic"
	"time"
)

// clickTimeout bounds one click; a click that takes longer fails.
const clickTimeout = 30 * time.Second

// page is the final page a click ends on, as the browser would show it.
type page struct {
	path  string // the URL the page was served for
	kind  string // collection, item or overview
	body  string
	links []string // every in-app href on the page, in order
}

var hrefRE = regexp.MustCompile(`href="(/[^"#]*)"`)

// newPage parses body and checks it is the page kind its path serves: the
// page check every click must pass.
func newPage(path, body string) (*page, error) {
	p := &page{path: path, body: body}
	switch {
	case strings.Contains(body, "<h2>Overview of "):
		p.kind = "overview"
	case strings.Contains(body, `<a href="/">← to collection`):
		p.kind = "item"
	case strings.Contains(body, "<h2>Query</h2>") && strings.Contains(body, " items</h2>"):
		p.kind = "collection"
	default:
		return nil, fmt.Errorf("%s: unrecognised page", path)
	}
	if !strings.HasSuffix(strings.TrimSpace(body), "</main>") {
		return nil, fmt.Errorf("%s: truncated page", path)
	}
	p.links = linksIn(body)
	return p, nil
}

// has reports whether the page links to target (the search form counts as
// a link to /search).
func (p *page) has(target string) bool {
	if strings.HasPrefix(target, "/search?") {
		return strings.Contains(p.body, `action="/search"`)
	}
	for _, l := range p.links {
		if l == target {
			return true
		}
	}
	return false
}

// linksWithPrefix returns the page's links starting with prefix.
func (p *page) linksWithPrefix(prefix string) []string { return withPrefix(p.links, prefix) }

func withPrefix(links []string, prefix string) []string {
	var out []string
	for _, l := range links {
		if strings.HasPrefix(l, prefix) {
			out = append(out, l)
		}
	}
	return out
}

// linksIn returns every in-app href in body, in order.
func linksIn(body string) []string {
	var out []string
	for _, m := range hrefRE.FindAllStringSubmatch(body, -1) {
		out = append(out, strings.ReplaceAll(m[1], "&amp;", "&"))
	}
	return out
}

// span is one timed interval recorded by the benchmark's own tracing: a
// click, or one HTTP request inside it (Parent = the click's ID).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Session int     `json:"session"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
	Status  int     `json:"status,omitempty"`
	Bytes   int     `json:"bytes,omitempty"`
}

// browser is one user's browser: a cookie jar (one server session), the
// page it shows, and the record of its clicks.
type browser struct {
	hc      *http.Client
	base    string
	session int
	cur     *page
	digest  hash.Hash

	// Filled per click; owned by the client goroutine running the session.
	lat      []float64 // click latencies, ms
	failed   int
	err      error          // why the session stopped early, if it did
	reqs     int            // HTTP requests sent
	reqMS    float64        // summed request round trips, ms
	reqPaths map[string]int // requests sent, by path
	pageSize int            // summed final page bytes
	byKind   map[string]int // final pages, by kind

	trace bool
	epoch time.Time
	spans []span
}

func newBrowser(transport http.RoundTripper, base string, session int) *browser {
	jar, _ := cookiejar.New(nil) // error is always nil without options
	return &browser{
		hc: &http.Client{
			Transport: transport,
			Jar:       jar,
			// A click follows the 303 itself so both requests are timed.
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		},
		base:    base,
		session: session,
		digest:  sha256.New(),
		byKind:  map[string]int{},

		reqPaths: map[string]int{},
	}
}

// click performs one user action: the request for target and, for the
// navigation handlers, the GET its 303 redirect leads to. target must be a
// link on the current page unless it is the session's first click.
func (b *browser) click(ctx context.Context, target string) error {
	if b.cur != nil && !b.cur.has(target) {
		b.failed++
		return fmt.Errorf("session %d: click failed: %s is not a link on %s", b.session, target, b.cur.path)
	}
	ctx, cancel := context.WithTimeout(ctx, clickTimeout)
	defer cancel()
	clickID := b.newSpanID()
	start := time.Now()
	p, err := b.follow(ctx, target, clickID)
	dur := time.Since(start)
	if b.trace {
		b.spans = append(b.spans, span{ID: clickID, Name: "click " + pathOf(target), Session: b.session,
			StartMS: ms(start.Sub(b.epoch)), DurMS: ms(dur)})
	}
	if err != nil {
		b.failed++
		return fmt.Errorf("session %d: click failed: %w", b.session, err)
	}
	b.lat = append(b.lat, ms(dur))
	b.pageSize += len(p.body)
	b.byKind[p.kind]++
	fmt.Fprintf(b.digest, "%s\n%d\n", target, len(p.body))
	io.WriteString(b.digest, p.body)
	b.cur = p
	return nil
}

func (b *browser) follow(ctx context.Context, target string, clickID int) (*page, error) {
	for hops := 0; hops < 2; hops++ {
		status, loc, body, err := b.get(ctx, target, clickID)
		if err != nil {
			return nil, err
		}
		switch {
		case status == http.StatusSeeOther && hops == 0:
			target = loc
		case status/100 == 2:
			return newPage(target, body)
		default:
			return nil, fmt.Errorf("GET %s: status %d", target, status)
		}
	}
	return nil, fmt.Errorf("GET %s: redirect loop", target)
}

func (b *browser) get(ctx context.Context, target string, clickID int) (status int, loc, body string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+target, nil)
	if err != nil {
		return 0, "", "", err
	}
	start := time.Now()
	resp, err := b.hc.Do(req)
	if err != nil {
		return 0, "", "", err
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read to the end; nothing left to report
	dur := time.Since(start)
	b.reqs++
	b.reqMS += ms(dur)
	b.reqPaths[pathOf(target)]++
	if b.trace {
		b.spans = append(b.spans, span{ID: b.newSpanID(), Parent: clickID, Name: "GET " + pathOf(target),
			Session: b.session, StartMS: ms(start.Sub(b.epoch)), DurMS: ms(dur),
			Status: resp.StatusCode, Bytes: len(raw)})
	}
	if err != nil {
		return 0, "", "", err
	}
	return resp.StatusCode, resp.Header.Get("Location"), string(raw), nil
}

// spanIDs numbers spans uniquely across all clients of a run.
var spanIDs atomic.Int64

func (b *browser) newSpanID() int {
	if !b.trace {
		return 0
	}
	return int(spanIDs.Add(1))
}

// sum returns the session's page digest.
func (b *browser) sum() string { return hex.EncodeToString(b.digest.Sum(nil))[:16] }

func pathOf(target string) string {
	p, _, _ := strings.Cut(target, "?")
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
