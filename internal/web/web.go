// Package web serves Magnet's faceted navigation interface over HTTP — the
// closest analogue to the paper's Haystack browser window (Figure 1): a
// single page with the keyword toolbar, the current query's constraint list
// (each removable and negatable), the result collection, and the advisors'
// navigation pane; plus the large-collection overview (Figure 2), item
// cards, and range widgets (Figure 5). Handlers are plain net/http and
// html/template, one browsing session per cookie.
package web

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"html/template"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"magnet/internal/blackboard"
	"magnet/internal/core"
	"magnet/internal/obs"
	"magnet/internal/qlang"
	"magnet/internal/query"
	"magnet/internal/rdf"
)

// Server serves one Magnet instance to many browser sessions.
type Server struct {
	m       *core.Magnet
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the observability middleware
	log     *slog.Logger

	mu sync.Mutex
	// guarded by mu
	sessions map[string]*core.Session
}

// Option configures a Server.
type Option func(*Server)

// WithLogger sets the structured logger for access and error logs
// (slog.Default() when unset).
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// NewServer returns a server over m.
func NewServer(m *core.Magnet, opts ...Option) *Server {
	s := &Server{
		m:        m,
		mux:      http.NewServeMux(),
		log:      slog.Default(),
		sessions: make(map[string]*core.Session),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("/", s.handleCollection)
	s.mux.HandleFunc("/search", s.handleSearch)
	s.mux.HandleFunc("/within", s.handleWithin)
	s.mux.HandleFunc("/go", s.handleGo)
	s.mux.HandleFunc("/open", s.handleOpen)
	s.mux.HandleFunc("/rm", s.handleRemove)
	s.mux.HandleFunc("/neg", s.handleNegate)
	s.mux.HandleFunc("/back", s.handleBack)
	s.mux.HandleFunc("/home", s.handleHome)
	s.mux.HandleFunc("/overview", s.handleOverview)
	s.mux.HandleFunc("/range", s.handleRange)
	s.mux.HandleFunc("/refine", s.handleRefine)
	s.handler = s.observe(s.mux)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

const sessionCookie = "magnet_session"

// session returns the request's browsing session, creating one (and setting
// the cookie) on first contact. All navigation is serialized under the
// server mutex: core.Session models a single user and is not concurrent.
// The error path is a failing entropy source for new session IDs.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*core.Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, err := r.Cookie(sessionCookie); err == nil {
		if sess, ok := s.sessions[c.Value]; ok {
			return sess, nil
		}
	}
	buf := make([]byte, 16)
	if _, err := rand.Read(buf); err != nil {
		return nil, fmt.Errorf("web: session id: %w", err)
	}
	id := hex.EncodeToString(buf)
	sess := s.m.NewSession()
	s.sessions[id] = sess
	http.SetCookie(w, &http.Cookie{Name: sessionCookie, Value: id, Path: "/"})
	return sess, nil
}

// withSession runs fn on the request's session under the server lock, with
// the request context installed on the session so the navigation step's
// spans attach to the request's trace root. The deferred unlock resets the
// session context (session state must not outlive the request that set it)
// and releases the lock even when fn panics, so one failing step cannot
// wedge every later request. It reports false, after writing the error
// response, when the session cannot be had. Handlers render outside fn,
// once the lock is released.
func (s *Server) withSession(w http.ResponseWriter, r *http.Request, fn func(*core.Session)) bool {
	sess, err := s.session(w, r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess.SetContext(r.Context())
	defer sess.SetContext(nil)
	fn(sess)
	return true
}

// navigate runs fn under the server lock and redirects to the collection
// page afterwards.
func (s *Server) navigate(w http.ResponseWriter, r *http.Request, fn func(*core.Session)) {
	if s.withSession(w, r, fn) {
		http.Redirect(w, r, "/", http.StatusSeeOther)
	}
}

// handleSearch accepts plain keywords or, when the input carries structured
// operators, the qlang query language (cuisine = Greek AND servings >= 4).
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.FormValue("q")
	s.navigate(w, r, func(sess *core.Session) {
		if strings.ContainsAny(q, "=:<>") {
			res := qlang.NewResolver(s.m.Graph(), s.m.Schema())
			if parsed, err := qlang.Parse(q, res); err == nil {
				if err := sess.Apply(blackboard.ReplaceQuery{Query: parsed}); err == nil {
					return
				}
			}
			// Fall back to keyword search when parsing or applying fails.
		}
		sess.Search(q)
	})
}

func (s *Server) handleWithin(w http.ResponseWriter, r *http.Request) {
	q := r.FormValue("q")
	s.navigate(w, r, func(sess *core.Session) { sess.SearchWithin(q) })
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	item := rdf.IRI(r.FormValue("item"))
	if !s.m.Graph().HasSubject(item) {
		http.NotFound(w, r)
		return
	}
	var data itemView
	if s.withSession(w, r, func(sess *core.Session) {
		sess.OpenItem(item)
		data = s.itemData(sess, item)
	}) {
		s.render(w, r, itemTemplate, data)
	}
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	i, err := strconv.Atoi(r.FormValue("i"))
	if err != nil {
		http.Error(w, "rm: bad constraint index", http.StatusBadRequest)
		return
	}
	s.navigate(w, r, func(sess *core.Session) { sess.RemoveConstraint(i) })
}

func (s *Server) handleNegate(w http.ResponseWriter, r *http.Request) {
	i, err := strconv.Atoi(r.FormValue("i"))
	if err != nil {
		http.Error(w, "neg: bad constraint index", http.StatusBadRequest)
		return
	}
	s.navigate(w, r, func(sess *core.Session) { sess.NegateConstraint(i) })
}

func (s *Server) handleBack(w http.ResponseWriter, r *http.Request) {
	s.navigate(w, r, func(sess *core.Session) { sess.Back() })
}

func (s *Server) handleHome(w http.ResponseWriter, r *http.Request) {
	s.navigate(w, r, func(sess *core.Session) { sess.GoHome() })
}

// handleGo applies a pane suggestion identified by its stable key, with an
// optional mode (filter/exclude/expand) — the context-menu operations.
func (s *Server) handleGo(w http.ResponseWriter, r *http.Request) {
	var respond func()
	if s.withSession(w, r, func(sess *core.Session) { respond = s.applySuggestion(w, r, sess) }) {
		respond()
	}
}

// applySuggestion is /go's locked section: it finds the suggestion on the
// session's board and applies its action. It returns the response to write
// once the lock is released.
func (s *Server) applySuggestion(w http.ResponseWriter, r *http.Request, sess *core.Session) (respond func()) {
	key := r.FormValue("k")
	var found *blackboard.Suggestion
	for _, sg := range sess.Board().Suggestions() {
		if sg.Key == key {
			found = &sg
			break
		}
	}
	if found == nil {
		return func() { http.Error(w, "suggestion expired; go back and retry", http.StatusGone) }
	}
	action := found.Action
	switch act := action.(type) {
	case blackboard.Refine:
		switch r.FormValue("mode") {
		case "exclude":
			act.Mode = blackboard.Exclude
		case "expand":
			act.Mode = blackboard.Expand
		}
		action = act
	case blackboard.ShowRange:
		data := s.rangeData(found.Title, act)
		return func() { s.render(w, r, rangeTemplate, data) }
	case blackboard.ShowSearch:
		return func() { http.Redirect(w, r, "/#search", http.StatusSeeOther) }
	case blackboard.ShowOverview:
		return func() { http.Redirect(w, r, "/overview", http.StatusSeeOther) }
	}
	if err := sess.Apply(action); err != nil {
		return func() { http.Error(w, err.Error(), http.StatusBadRequest) }
	}
	return func() { http.Redirect(w, r, "/", http.StatusSeeOther) }
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	prop := rdf.IRI(r.FormValue("prop"))
	parse := func(name string) (*float64, bool) {
		v := r.FormValue(name)
		if v == "" {
			return nil, true
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, false
		}
		return &f, true
	}
	lo, ok1 := parse("lo")
	hi, ok2 := parse("hi")
	if !ok1 || !ok2 {
		http.Error(w, "range: bounds must be numbers", http.StatusBadRequest)
		return
	}
	s.navigate(w, r, func(sess *core.Session) { sess.ApplyRange(prop, lo, hi) })
}

// handleRefine applies a direct property/value refinement — the Figure 2
// overview's clickable values ("Users can click and select a refinement
// option, such as Greek cuisine", §3.1). The value travels as a canonical
// term key; mode may be exclude/expand.
func (s *Server) handleRefine(w http.ResponseWriter, r *http.Request) {
	prop := rdf.IRI(r.FormValue("prop"))
	term, ok := rdf.ParseTermKey(r.FormValue("vk"))
	if prop == "" || !ok {
		http.Error(w, "refine: need prop and a valid value key", http.StatusBadRequest)
		return
	}
	mode := blackboard.Filter
	switch r.FormValue("mode") {
	case "exclude":
		mode = blackboard.Exclude
	case "expand":
		mode = blackboard.Expand
	}
	s.navigate(w, r, func(sess *core.Session) {
		sess.Refine(query.Property{Prop: prop, Value: term}, mode)
	})
}

func (s *Server) handleOverview(w http.ResponseWriter, r *http.Request) {
	var data overviewView
	if s.withSession(w, r, func(sess *core.Session) { data = s.overviewData(sess) }) {
		s.render(w, r, overviewTemplate, data)
	}
}

func (s *Server) handleCollection(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	var data collectionView
	if s.withSession(w, r, func(sess *core.Session) { data = s.collectionData(sess) }) {
		s.render(w, r, collectionTemplate, data)
	}
}

// ------------------------------------------------------------ view data --

type constraintView struct {
	Index int
	Text  string
}

type itemLink struct {
	IRI   string
	Label string
}

type suggestionView struct {
	Key      string
	Title    string
	Detail   string
	IsRefine bool
}

type groupView struct {
	Title       string
	Suggestions []suggestionView
	Omitted     int
}

type sectionView struct {
	Advisor string
	Groups  []groupView
}

type collectionView struct {
	Title       string
	Constraints []constraintView
	Items       []itemLink
	Total       int
	Sections    []sectionView
}

func (s *Server) collectionData(sess *core.Session) collectionView {
	pane := sess.Pane()
	data := collectionView{Title: "Magnet"}
	if v := sess.Current(); v.Fixed {
		data.Title = v.Name
	}
	for i, c := range pane.Constraints {
		data.Constraints = append(data.Constraints, constraintView{i, c})
	}
	items := sess.Items()
	data.Total = len(items)
	if len(items) > 40 {
		items = items[:40]
	}
	for _, it := range items {
		data.Items = append(data.Items, itemLink{string(it), s.m.Label(it)})
	}
	for _, sec := range pane.Sections {
		sv := sectionView{Advisor: sec.Advisor}
		for _, g := range sec.Groups {
			gv := groupView{Title: g.Title, Omitted: g.Omitted}
			for _, sg := range g.Suggestions {
				_, isRefine := sg.Action.(blackboard.Refine)
				gv.Suggestions = append(gv.Suggestions, suggestionView{
					Key: sg.Key, Title: sg.Title, Detail: sg.Detail, IsRefine: isRefine,
				})
			}
			sv.Groups = append(sv.Groups, gv)
		}
		data.Sections = append(data.Sections, sv)
	}
	return data
}

type attributeView struct {
	Prop   string
	Values []itemLink
}

type similarView struct {
	IRI   string
	Label string
	Score string
	Why   string
}

type itemView struct {
	Label      string
	IRI        string
	Attributes []attributeView
	Similar    []similarView
}

func (s *Server) itemData(sess *core.Session, item rdf.IRI) itemView {
	g := s.m.Graph()
	data := itemView{Label: s.m.Label(item), IRI: string(item)}
	for _, p := range g.PredicatesOf(item) {
		av := attributeView{Prop: s.m.Label(p)}
		for _, v := range g.Objects(item, p) {
			link := itemLink{Label: g.TermLabel(v)}
			if iri, ok := v.(rdf.IRI); ok && g.HasSubject(iri) {
				link.IRI = string(iri)
			}
			av.Values = append(av.Values, link)
		}
		data.Attributes = append(data.Attributes, av)
	}
	// Similar items with inspectable explanations (the "Overall" fuzzy
	// match, each annotated with its top shared coordinates).
	for _, sc := range s.m.Model().SimilarToItem(item, 6) {
		why := s.m.ExplainSimilarityText(item, sc.Item, 3)
		data.Similar = append(data.Similar, similarView{
			IRI:   string(sc.Item),
			Label: s.m.Label(sc.Item),
			Score: fmt.Sprintf("%.2f", sc.Score),
			Why:   strings.Join(why, " · "),
		})
	}
	return data
}

type facetValueView struct {
	Label string
	Count int
	Width int
	// Prop and Key make the value clickable as a refinement.
	Prop string
	Key  string
}

type facetView struct {
	Label    string
	Distinct int
	Values   []facetValueView
}

type overviewView struct {
	Total  int
	Facets []facetView
}

func (s *Server) overviewData(sess *core.Session) overviewView {
	fs := sess.Overview(8)
	data := overviewView{Total: len(sess.Items())}
	for _, f := range fs {
		fv := facetView{Label: f.Label, Distinct: f.Distinct}
		if !f.Labeled {
			fv.Label = string(f.Prop)
		}
		for _, v := range f.Values {
			width := 0
			if data.Total > 0 {
				width = v.Count * 100 / data.Total
			}
			if width < 2 {
				width = 2
			}
			fv.Values = append(fv.Values, facetValueView{
				Label: v.Label, Count: v.Count, Width: width,
				Prop: string(f.Prop), Key: v.Term.Key(),
			})
		}
		data.Facets = append(data.Facets, fv)
	}
	return data
}

type rangeView struct {
	Title   string
	Prop    string
	Min     float64
	Max     float64
	Buckets []int
}

func (s *Server) rangeData(title string, act blackboard.ShowRange) rangeView {
	return rangeView{
		Title:   title,
		Prop:    string(act.Prop),
		Min:     act.Histogram.Min,
		Max:     act.Histogram.Max,
		Buckets: act.Histogram.Buckets,
	}
}

// renderErrors counts template render failures — the observable face of the
// 500s below.
var renderErrors = obs.NewCounter("web.render.errors")

// render executes the template into a buffer so a failure can still become a
// proper 500 (headers not yet written) carrying the request ID the error was
// logged under, instead of a silently truncated page.
func (s *Server) render(w http.ResponseWriter, r *http.Request, t *template.Template, data any) {
	var buf bytes.Buffer
	if err := t.Execute(&buf, data); err != nil {
		renderErrors.Inc()
		id := RequestID(r.Context())
		s.log.LogAttrs(r.Context(), slog.LevelError, "template render failed",
			slog.String("id", id),
			slog.String("template", t.Name()),
			slog.String("err", err.Error()),
		)
		http.Error(w, "internal error (request "+id+")", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if _, err := buf.WriteTo(w); err != nil {
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "response write failed",
			slog.String("id", RequestID(r.Context())),
			slog.String("err", err.Error()),
		)
	}
}

// escape helps templates build URLs.
func escape(s string) string { return url.QueryEscape(s) }
