// Package query implements Magnet's query engine (paper §4.2): resolution
// of the "various set concepts" behind navigation. Queries are conjunctions
// of predicates (the constraint list at the top of the navigation pane);
// predicates may be negated, grouped disjunctively, property/value matches,
// free-text keyword matches resolved "uniformly [against] an external
// index", or numeric range comparisons ("greater than and less than
// predicates").
//
// The extension mechanism the paper describes is the Predicate interface
// itself: analysts (or applications) define new predicate types that
// evaluate against the Engine's graph, schema and text index.
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"magnet/internal/ids"
	"magnet/internal/index"
	"magnet/internal/itemset"
	"magnet/internal/rdf"
	"magnet/internal/schema"
)

// Set is a set of items, backed by the dense-ID plane: an itemset over the
// graph's frozen subject table. Set algebra is merge-based over sorted
// uint32 postings — no hashing, no per-member allocation — and IRIs are
// rehydrated only at the render boundary (Items). The zero Set is empty.
//
// Sets produced by one Engine share that engine's subject table; mixing
// sets from different engines still works — the receiver re-looks-up the
// other side's members — but costs the rehydration it normally avoids.
type Set struct {
	in  *ids.Table[rdf.IRI]
	set itemset.Set
}

// idsIn looks keys up in the subject table, skipping keys it has never
// seen: such items carry no triples, so no engine set can hold them.
func idsIn(in *ids.Table[rdf.IRI], keys []rdf.IRI) itemset.Set {
	dense := make([]uint32, 0, len(keys))
	for _, k := range keys {
		if id, ok := in.Lookup(k); ok {
			dense = append(dense, id)
		}
	}
	return itemset.FromUnsorted(dense)
}

// NewSet builds a set from items in the engine's dense ID space, skipping
// items the graph has never seen.
func (e *Engine) NewSet(items ...rdf.IRI) Set {
	return Set{in: e.g.SubjectTable(), set: idsIn(e.g.SubjectTable(), items)}
}

// setFromIDs wraps an itemset from the engine's ID space without copying.
func (e *Engine) setFromIDs(s itemset.Set) Set {
	return Set{in: e.g.SubjectTable(), set: s}
}

// Len returns the number of members.
func (s Set) Len() int { return s.set.Len() }

// IsEmpty reports whether the set has no members.
func (s Set) IsEmpty() bool { return s.set.IsEmpty() }

// Has reports membership.
func (s Set) Has(it rdf.IRI) bool {
	if s.in == nil {
		return false
	}
	id, ok := s.in.Lookup(it)
	return ok && s.set.Has(id)
}

// IDs exposes the dense-ID view for layers that stay on the ID plane
// (facets, vsm, advisors).
func (s Set) IDs() itemset.Set { return s.set }

// Items returns the members sorted lexically (the render-boundary
// rehydration; subject IDs ascend with their IRIs, so no sort is needed).
func (s Set) Items() []rdf.IRI {
	if s.set.IsEmpty() {
		return []rdf.IRI{}
	}
	return s.in.AppendKeys(make([]rdf.IRI, 0, s.set.Len()), s.set.Slice())
}

// rebase returns t's itemset expressed in s's ID space, re-looking-up
// t's members when the two sets come from different engines.
func (s Set) rebase(t Set) itemset.Set {
	if t.in == s.in || t.set.IsEmpty() {
		return t.set
	}
	return idsIn(s.in, t.in.AppendKeys(make([]rdf.IRI, 0, t.set.Len()), t.set.Slice()))
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	if s.in == nil || t.in == nil {
		return Set{in: s.in}
	}
	return Set{in: s.in, set: s.set.Intersect(s.rebase(t))}
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	if s.in == nil {
		return t
	}
	return Set{in: s.in, set: s.set.Union(s.rebase(t))}
}

// Minus returns s \ t.
func (s Set) Minus(t Set) Set {
	if s.in == nil || t.in == nil || t.set.IsEmpty() {
		return s
	}
	return Set{in: s.in, set: s.set.Minus(s.rebase(t))}
}

// Labeler renders resources for humans; the graph's Label method satisfies
// it via a closure.
type Labeler func(rdf.IRI) string

// Engine evaluates predicates over a graph with its annotations, an
// external text index, and a universe of queryable items.
type Engine struct {
	g    *rdf.Graph
	sch  *schema.Store
	text *index.TextIndex
	// universe holds all queryable items (Magnet's indexed information
	// objects) as graph subject IDs; Not and empty queries resolve
	// against it.
	universe itemset.Set
}

// NewEngine returns an engine over the item universe, given as graph
// subject IDs. text may be nil (keyword predicates then match nothing).
func NewEngine(g *rdf.Graph, sch *schema.Store, text *index.TextIndex, universe itemset.Set) *Engine {
	return &Engine{g: g, sch: sch, text: text, universe: universe}
}

// Rebase expresses s on the engine's dense-ID plane, re-looking-up its
// members when s came from a different engine; sets already in the
// engine's space pass through unchanged.
func (e *Engine) Rebase(s Set) itemset.Set {
	return Set{in: e.g.SubjectTable()}.rebase(s)
}

// Universe returns the set of all queryable items.
func (e *Engine) Universe() Set { return e.setFromIDs(e.universe) }

// Predicate is one query constraint. Implementations evaluate to the set of
// matching items; new predicate kinds plug in by implementing this
// interface (the §4.2 extension mechanism).
type Predicate interface {
	// Eval returns the items matching the predicate.
	Eval(e *Engine) Set
	// Describe renders the constraint for the navigation pane.
	Describe(l Labeler) string
	// Key is a canonical identity used for de-duplication and history.
	Key() string
}

// Property matches items carrying an exact attribute/value pair.
type Property struct {
	Prop  rdf.IRI
	Value rdf.Term
}

// Eval implements Predicate via the graph's reverse index — a zero-copy
// view of the posting list.
//
//magnet:hot
func (p Property) Eval(e *Engine) Set {
	return e.setFromIDs(e.g.SubjectIDSet(p.Prop, p.Value))
}

// Describe implements Predicate.
func (p Property) Describe(l Labeler) string {
	var v string
	switch t := p.Value.(type) {
	case rdf.IRI:
		v = l(t)
	case rdf.Literal:
		v = t.Lexical
	default:
		v = p.Value.String()
	}
	return l(p.Prop) + " = " + v
}

// Key implements Predicate.
func (p Property) Key() string { return "prop:" + string(p.Prop) + "=" + p.Value.Key() }

// TypeIs matches items of an rdf:type.
func TypeIs(class rdf.IRI) Property {
	return Property{Prop: rdf.Type, Value: class}
}

// PathProperty matches items reaching Value through a composed property
// path (§5.1's "the author's field of expertise"): item —p₁→ x —p₂→ ... →
// Value. A length-1 path is equivalent to Property.
type PathProperty struct {
	Path  []rdf.IRI
	Value rdf.Term
}

// Eval implements Predicate by chasing the path backwards through the
// reverse index: subjects(pₙ, value), then subjects(pₙ₋₁, ·) of those, ...
func (p PathProperty) Eval(e *Engine) Set {
	if len(p.Path) == 0 {
		return Set{}
	}
	n := e.g.SubjectTable().Len()
	frontier := e.g.SubjectIDSet(p.Path[len(p.Path)-1], p.Value)
	for i := len(p.Path) - 2; i >= 0; i-- {
		b := itemset.NewBits(n)
		frontier.ForEach(func(id uint32) bool {
			b.AddSliceBelow(e.g.SubjectIDSet(p.Path[i], e.g.SubjectByID(id)).Slice(), n)
			return true
		})
		frontier = b.Extract()
		if frontier.IsEmpty() {
			break
		}
	}
	return e.setFromIDs(frontier)
}

// Describe implements Predicate.
func (p PathProperty) Describe(l Labeler) string {
	segs := make([]string, len(p.Path))
	for i, prop := range p.Path {
		segs[i] = l(prop)
	}
	var v string
	switch t := p.Value.(type) {
	case rdf.IRI:
		v = l(t)
	case rdf.Literal:
		v = t.Lexical
	default:
		v = p.Value.String()
	}
	return strings.Join(segs, " · ") + " = " + v
}

// Key implements Predicate.
func (p PathProperty) Key() string {
	segs := make([]string, len(p.Path))
	for i, prop := range p.Path {
		segs[i] = string(prop)
	}
	return "path:" + strings.Join(segs, "/") + "=" + p.Value.Key()
}

// Keyword matches items whose indexed text contains every word of Text.
// Field scopes the match ("" = any field); fields are the names used when
// the text index was populated (conventionally "title" and "body").
type Keyword struct {
	Text  string
	Field string
}

// Eval implements Predicate through the external text index (§4.2).
func (k Keyword) Eval(e *Engine) Set {
	if e.text == nil || strings.TrimSpace(k.Text) == "" {
		return Set{}
	}
	return e.setFromDocIDs(e.text.Matching(k.Text, k.Field))
}

// setFromDocIDs maps text-index document IDs (which are item IRIs) into
// the engine's dense space.
func (e *Engine) setFromDocIDs(docs []string) Set {
	in := e.g.SubjectTable()
	dense := make([]uint32, 0, len(docs))
	for _, id := range docs {
		if n, ok := in.Lookup(rdf.IRI(id)); ok {
			dense = append(dense, n)
		}
	}
	return Set{in: in, set: itemset.FromUnsorted(dense)}
}

// Describe implements Predicate.
func (k Keyword) Describe(Labeler) string {
	if k.Field != "" {
		return fmt.Sprintf("%s contains %q", k.Field, k.Text)
	}
	return fmt.Sprintf("contains %q", k.Text)
}

// Key implements Predicate.
func (k Keyword) Key() string { return "kw:" + k.Field + ":" + strings.ToLower(k.Text) }

// TermMatch matches items whose indexed text contains one already-analyzed
// (stemmed) term. Refinement analysts use it to turn vector-space word
// coordinates — which are stems — into constraints without re-stemming
// (Porter is not idempotent). Display holds the human-readable surface form.
type TermMatch struct {
	Term    string
	Field   string
	Display string
}

// Eval implements Predicate.
func (m TermMatch) Eval(e *Engine) Set {
	if e.text == nil || m.Term == "" {
		return Set{}
	}
	return e.setFromDocIDs(e.text.MatchingTerm(m.Term, m.Field))
}

// Describe implements Predicate.
func (m TermMatch) Describe(Labeler) string {
	d := m.Display
	if d == "" {
		d = m.Term
	}
	if m.Field != "" {
		return fmt.Sprintf("%s has word %q", m.Field, d)
	}
	return fmt.Sprintf("has word %q", d)
}

// Key implements Predicate.
func (m TermMatch) Key() string { return "term:" + m.Field + ":" + m.Term }

// Range matches items whose Prop has a numeric (or numeric-parseable, or
// temporal) value within [Min, Max]; either bound may be nil for a
// one-sided greater-than / less-than comparison (§4.2, §5.4).
type Range struct {
	Prop rdf.IRI
	Min  *float64
	Max  *float64
}

// AtLeast builds a one-sided greater-than-or-equal range.
func AtLeast(prop rdf.IRI, min float64) Range { return Range{Prop: prop, Min: &min} }

// AtMost builds a one-sided less-than-or-equal range.
func AtMost(prop rdf.IRI, max float64) Range { return Range{Prop: prop, Max: &max} }

// Eval implements Predicate by walking the property's value domain (one
// reverse-index probe per in-range value, never per item), unioning the
// in-range posting lists through a bitmap.
func (r Range) Eval(e *Engine) Set {
	n := e.g.SubjectTable().Len()
	b := itemset.NewBits(n)
	e.g.ForEachValuePosting(r.Prop, func(v rdf.Term, subjects itemset.Set) bool {
		lit, ok := v.(rdf.Literal)
		if !ok {
			return true
		}
		f, ok := lit.Float()
		if !ok {
			return true
		}
		if r.Min != nil && f < *r.Min {
			return true
		}
		if r.Max != nil && f > *r.Max {
			return true
		}
		b.AddSliceBelow(subjects.Slice(), n)
		return true
	})
	return e.setFromIDs(b.Extract())
}

// Describe implements Predicate.
func (r Range) Describe(l Labeler) string {
	name := l(r.Prop)
	fmtBound := func(f float64) string {
		if f >= 1e9 && f < 1e11 { // plausibly Unix seconds
			return time.Unix(int64(f), 0).UTC().Format("2006-01-02")
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	switch {
	case r.Min != nil && r.Max != nil:
		return fmt.Sprintf("%s in [%s, %s]", name, fmtBound(*r.Min), fmtBound(*r.Max))
	case r.Min != nil:
		return fmt.Sprintf("%s ≥ %s", name, fmtBound(*r.Min))
	case r.Max != nil:
		return fmt.Sprintf("%s ≤ %s", name, fmtBound(*r.Max))
	default:
		return name + " has any value"
	}
}

// Key implements Predicate.
func (r Range) Key() string {
	b := "range:" + string(r.Prop) + ":"
	if r.Min != nil {
		b += strconv.FormatFloat(*r.Min, 'g', -1, 64)
	}
	b += ".."
	if r.Max != nil {
		b += strconv.FormatFloat(*r.Max, 'g', -1, 64)
	}
	return b
}

// Not negates a predicate against the universe (the context-menu negation
// of §3.2, and the Contrary Constraints advisor's operation).
type Not struct {
	P Predicate
}

// Eval implements Predicate.
func (n Not) Eval(e *Engine) Set {
	return e.Universe().Minus(n.P.Eval(e))
}

// Describe implements Predicate.
func (n Not) Describe(l Labeler) string { return "NOT " + n.P.Describe(l) }

// Key implements Predicate.
func (n Not) Key() string { return "not:" + n.P.Key() }

// And is an explicit conjunction (the compound refinement of §3.3).
type And struct {
	Ps []Predicate
}

// Eval implements Predicate.
func (a And) Eval(e *Engine) Set {
	return evalAnd(e, a.Ps,
		func(p Predicate) Set { return p.Eval(e) },
		func(n Not, acc Set) Set {
			return acc.Intersect(e.Universe()).Minus(n.P.Eval(e))
		})
}

// evalAnd is the conjunction loop shared by And.Eval and the
// instrumented Engine.EvalContext path: empty conjunctions yield the
// universe, and evaluation short-circuits on the first empty
// intersection. eval maps one term to its result set; evalNot applies a
// negated term to the accumulated result *lazily* — (acc ∩ U) \ E equals
// acc ∩ (U \ E), so the full universe complement that Not.Eval would
// materialize is never built on the conjunction path. A leading Not still
// takes the eval path (there is no accumulator to subtract from yet).
func evalAnd(e *Engine, ps []Predicate, eval func(Predicate) Set, evalNot func(Not, Set) Set) Set {
	if len(ps) == 0 {
		return e.Universe()
	}
	out := eval(ps[0])
	for _, p := range ps[1:] {
		if out.IsEmpty() {
			return out
		}
		if n, ok := p.(Not); ok {
			out = evalNot(n, out)
			continue
		}
		out = out.Intersect(eval(p))
	}
	return out
}

// Describe implements Predicate.
func (a And) Describe(l Labeler) string { return joinDescribe(a.Ps, l, " AND ") }

// Key implements Predicate.
func (a And) Key() string { return joinKeys("and", a.Ps) }

// Or is a disjunction (the "'or' refinement" of §3.3: items that "either
// have a dairy product or a vegetable in them").
type Or struct {
	Ps []Predicate
}

// Eval implements Predicate.
func (o Or) Eval(e *Engine) Set {
	return evalOr(o.Ps, func(p Predicate) Set { return p.Eval(e) })
}

// evalOr is the disjunction loop shared by Or.Eval and the instrumented
// Engine.EvalContext path.
func evalOr(ps []Predicate, eval func(Predicate) Set) Set {
	var out Set
	for _, p := range ps {
		out = out.Union(eval(p))
	}
	return out
}

// Describe implements Predicate.
func (o Or) Describe(l Labeler) string { return joinDescribe(o.Ps, l, " OR ") }

// Key implements Predicate.
func (o Or) Key() string { return joinKeys("or", o.Ps) }

func joinDescribe(ps []Predicate, l Labeler, sep string) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.Describe(l)
	}
	return "(" + strings.Join(parts, sep) + ")"
}

func joinKeys(op string, ps []Predicate) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.Key()
	}
	sort.Strings(parts)
	return op + ":{" + strings.Join(parts, ",") + "}"
}

// Query is the user's current conjunctive constraint list (§3.2: "a
// conjunctive query consisting of three terms or constraints"). Queries are
// immutable values; refinement operations return new queries, which is what
// makes the Refinement History advisor's undo trivial.
type Query struct {
	Terms []Predicate
	// keys caches Terms' Key() strings, index-aligned. Predicate keys are
	// rebuilt from scratch on every With/Key call otherwise — an avoidable
	// per-refine allocation storm, since predicates are immutable values.
	// Maintained by NewQuery/With/Without/Negate; literal-constructed
	// queries (Query{Terms: ...}) simply have no cache and re-derive.
	keys []string
}

// NewQuery builds a query from constraint terms.
func NewQuery(terms ...Predicate) Query {
	return Query{Terms: terms, keys: termKeys(terms)}
}

// termKeys derives the per-term key cache.
func termKeys(terms []Predicate) []string {
	keys := make([]string, len(terms))
	for i, t := range terms {
		keys[i] = t.Key()
	}
	return keys
}

// TermKeys returns each term's Key(), index-aligned with Terms — cached
// when the query was built through the package's constructors, re-derived
// otherwise. Callers must not mutate the returned slice.
func (q Query) TermKeys() []string {
	if len(q.keys) == len(q.Terms) {
		return q.keys
	}
	return termKeys(q.Terms)
}

// indexOfKey scans a small key slice for an exact match. Split out so the
// refine-step duplicate check stays allocation- and interface-call-free
// (the predicate's Key is derived once by the caller, not per iteration).
//
//magnet:hot
func indexOfKey(keys []string, k string) int {
	for i, s := range keys {
		if s == k {
			return i
		}
	}
	return -1
}

// With returns the query extended by p (ignored if an identical constraint
// is already present).
func (q Query) With(p Predicate) Query {
	pk := p.Key()
	keys := q.TermKeys()
	if indexOfKey(keys, pk) >= 0 {
		return q
	}
	terms := make([]Predicate, len(q.Terms)+1)
	copy(terms, q.Terms)
	terms[len(q.Terms)] = p
	nk := make([]string, len(keys)+1)
	copy(nk, keys)
	nk[len(keys)] = pk
	return Query{Terms: terms, keys: nk}
}

// Without returns the query with the i-th constraint removed (the '✕' of
// §3.2); out-of-range indices return the query unchanged.
func (q Query) Without(i int) Query {
	if i < 0 || i >= len(q.Terms) {
		return q
	}
	terms := make([]Predicate, 0, len(q.Terms)-1)
	terms = append(terms, q.Terms[:i]...)
	terms = append(terms, q.Terms[i+1:]...)
	keys := q.TermKeys()
	nk := make([]string, 0, len(keys)-1)
	nk = append(nk, keys[:i]...)
	nk = append(nk, keys[i+1:]...)
	return Query{Terms: terms, keys: nk}
}

// Negate returns the query with the i-th constraint inverted (the
// context-menu negation of §3.2); double negation unwraps.
func (q Query) Negate(i int) Query {
	if i < 0 || i >= len(q.Terms) {
		return q
	}
	terms := make([]Predicate, len(q.Terms))
	copy(terms, q.Terms)
	if n, ok := terms[i].(Not); ok {
		terms[i] = n.P
	} else {
		terms[i] = Not{P: terms[i]}
	}
	nk := make([]string, len(terms))
	copy(nk, q.TermKeys())
	nk[i] = terms[i].Key()
	return Query{Terms: terms, keys: nk}
}

// IsEmpty reports whether the query has no constraints.
func (q Query) IsEmpty() bool { return len(q.Terms) == 0 }

// Describe renders each constraint on its own line.
func (q Query) Describe(l Labeler) []string {
	out := make([]string, len(q.Terms))
	for i, t := range q.Terms {
		out[i] = t.Describe(l)
	}
	return out
}

// Key canonically identifies the query (term order is irrelevant for
// conjunctions).
func (q Query) Key() string {
	parts := make([]string, len(q.Terms))
	copy(parts, q.TermKeys())
	sort.Strings(parts)
	return "query:{" + strings.Join(parts, ",") + "}"
}
