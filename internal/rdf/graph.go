package rdf

import (
	"sort"
	"sync"

	"magnet/internal/ids"
	"magnet/internal/itemset"
)

// Graph is an in-memory, concurrency-safe, indexed triple store. It
// maintains subject→predicate→object and predicate→object→subject indexes
// so that both forward navigation (attributes of an item) and reverse
// navigation (items with a given attribute value) are O(result).
//
// The graph owns the engine's subject interner: every subject is assigned a
// dense uint32 item ID on first insertion, and the reverse (pos) index
// stores sorted posting lists of those IDs. Hot layers (query, facets, vsm)
// consume the ID-plane accessors (SubjectIDSet, AllSubjectIDs,
// ForEachValuePosting) and rehydrate IRIs only at the render boundary;
// posting lists are copy-on-write, so a returned itemset.Set stays valid
// across later mutations.
//
// All IRI-level read accessors return freshly allocated, deterministically
// ordered slices so callers may retain and mutate them, and so navigation
// panes render identically run to run.
type Graph struct {
	mu sync.RWMutex

	// spo: subject → predicate → object key → object term.
	spo map[IRI]map[IRI]map[string]Term
	// pos: predicate → object key → sorted subject-ID posting list
	// (copy-on-write: slices are never mutated in place once published).
	//
	//magnet:frozen
	pos map[IRI]map[string][]uint32
	// terms interns object terms by key, for recovering a Term from an
	// index key.
	terms map[string]Term

	// in assigns dense item IDs to subjects, append-only; subjIDs is the
	// sorted copy-on-write posting of all live subjects (those with at
	// least one triple).
	in      *ids.Interner[IRI]
	subjIDs []uint32 //magnet:frozen

	size    int
	version uint64

	// valuesMu guards valuesMemo: each predicate's values in key order, as
	// ForEachValuePosting walks them, stamped with the version they were
	// read at. An entry from an older version is rebuilt on its next read,
	// so a mutation drops the memo. Filled lazily, one predicate at a time.
	valuesMu sync.Mutex
	// guarded by valuesMu
	valuesMemo map[IRI]sortedValues

	// seg, when non-nil, makes the graph a read-only view over a columnar
	// segment image: read accessors branch to it, the maps above stay nil,
	// and mutations panic. See segcols.go.
	seg *segGraph
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		spo:   make(map[IRI]map[IRI]map[string]Term),
		pos:   make(map[IRI]map[string][]uint32),
		terms: make(map[string]Term),
		in:    ids.NewInterner[IRI](),
	}
}

// Len returns the number of triples in the graph.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.size
}

// mutable panics when the graph is a read-only segment view. Segment-backed
// graphs are compiled once by magnet-build; runtime mutation would silently
// diverge from the on-disk indexes.
func (g *Graph) mutable() {
	if g.seg != nil {
		panic("rdf: mutation of read-only segment-backed graph")
	}
}

// Add inserts the triple (s, p, o). It reports whether the triple was new.
func (g *Graph) Add(s, p IRI, o Term) bool {
	g.mutable()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.addLocked(s, p, o)
}

// AddAll inserts every statement in sts, returning the number newly added.
func (g *Graph) AddAll(sts []Statement) int {
	g.mutable()
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, st := range sts {
		if g.addLocked(st.Subject, st.Predicate, st.Object) {
			n++
		}
	}
	return n
}

func (g *Graph) addLocked(s, p IRI, o Term) bool {
	ok := o.Key()
	po := g.spo[s]
	if po == nil {
		po = make(map[IRI]map[string]Term)
		g.spo[s] = po
	}
	objs := po[p]
	if objs == nil {
		objs = make(map[string]Term)
		po[p] = objs
	}
	if _, dup := objs[ok]; dup {
		return false
	}
	objs[ok] = o

	sid := g.in.Intern(s)
	os := g.pos[p]
	if os == nil {
		os = make(map[string][]uint32)
		g.pos[p] = os
	}
	os[ok] = insertID(os[ok], sid)
	if len(po) == 1 && len(objs) == 1 {
		// First triple of s: it just became a live subject.
		g.subjIDs = insertID(g.subjIDs, sid)
	}

	if _, seen := g.terms[ok]; !seen {
		g.terms[ok] = o
	}
	g.size++
	g.version++
	return true
}

// insertID returns a sorted slice containing ids plus id. The input is
// never mutated (copy-on-write), so posting views handed out earlier stay
// immutable snapshots.
func insertID(ids []uint32, id uint32) []uint32 {
	i := searchU32(ids, id)
	if i < len(ids) && ids[i] == id {
		return ids
	}
	out := make([]uint32, len(ids)+1)
	copy(out, ids[:i])
	out[i] = id
	copy(out[i+1:], ids[i:])
	return out
}

// removeID returns a sorted slice containing ids minus id, copy-on-write.
func removeID(ids []uint32, id uint32) []uint32 {
	i := searchU32(ids, id)
	if i >= len(ids) || ids[i] != id {
		return ids
	}
	if len(ids) == 1 {
		return nil
	}
	out := make([]uint32, len(ids)-1)
	copy(out, ids[:i])
	copy(out[i:], ids[i+1:])
	return out
}

func searchU32(ids []uint32, id uint32) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Version returns a counter that changes on every successful mutation;
// caches keyed on it stay valid exactly while the graph is unchanged.
func (g *Graph) Version() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.version
}

// Remove deletes the triple (s, p, o). It reports whether it was present.
func (g *Graph) Remove(s, p IRI, o Term) bool {
	g.mutable()
	g.mu.Lock()
	defer g.mu.Unlock()
	ok := o.Key()
	objs := g.spo[s][p]
	if _, present := objs[ok]; !present {
		return false
	}
	delete(objs, ok)
	sid, _ := g.in.Lookup(s)
	if len(objs) == 0 {
		delete(g.spo[s], p)
		if len(g.spo[s]) == 0 {
			delete(g.spo, s)
			g.subjIDs = removeID(g.subjIDs, sid)
		}
	}
	subs := removeID(g.pos[p][ok], sid)
	if len(subs) == 0 {
		delete(g.pos[p], ok)
		if len(g.pos[p]) == 0 {
			delete(g.pos, p)
		}
	} else {
		g.pos[p][ok] = subs
	}
	g.size--
	g.version++
	return true
}

// Has reports whether the triple (s, p, o) is present.
func (g *Graph) Has(s, p IRI, o Term) bool {
	if g.seg != nil {
		return g.seg.has(g, s, p, o)
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, present := g.spo[s][p][o.Key()]
	return present
}

// HasSubject reports whether any triple has subject s.
func (g *Graph) HasSubject(s IRI) bool {
	if g.seg != nil {
		return g.seg.hasSubject(g, s)
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.spo[s]) > 0
}

// Objects returns all objects of triples (s, p, ·), sorted by key.
func (g *Graph) Objects(s, p IRI) []Term {
	if g.seg != nil {
		return g.seg.objects(g, s, p)
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	objs := g.spo[s][p]
	if len(objs) == 0 {
		return nil
	}
	out := make([]Term, 0, len(objs))
	for _, o := range objs {
		out = append(out, o)
	}
	sortTerms(out)
	return out
}

// ForEachObject calls f for every object of triples (s, p, ·) until f
// returns false, without materializing the sorted value slice that
// Objects allocates. Iteration order is unspecified (callers needing
// determinism use Objects); it exists for order-insensitive per-item
// probes — the query engine's candidate-first Range checks. f runs with
// the graph read-locked and must not call back into mutating methods.
func (g *Graph) ForEachObject(s, p IRI, f func(Term) bool) {
	if g.seg != nil {
		for _, o := range g.seg.objects(g, s, p) {
			if !f(o) {
				return
			}
		}
		return
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, o := range g.spo[s][p] {
		if !f(o) {
			return
		}
	}
}

// Object returns one object of (s, p, ·) — the least by key — and whether
// any exists. Useful for functional properties such as labels.
func (g *Graph) Object(s, p IRI) (Term, bool) {
	objs := g.Objects(s, p)
	if len(objs) == 0 {
		return nil, false
	}
	return objs[0], true
}

// ObjectCount returns the number of objects of (s, p, ·) without
// materializing them (used for per-attribute tf normalization, §5.2).
func (g *Graph) ObjectCount(s, p IRI) int {
	if g.seg != nil {
		return g.seg.objectCount(g, s, p)
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.spo[s][p])
}

// Subjects returns all subjects of triples (·, p, o), sorted.
func (g *Graph) Subjects(p IRI, o Term) []IRI {
	var subs []uint32
	if g.seg != nil {
		subs = g.seg.subjectIDSet(p, o.Key()).Slice()
	} else {
		g.mu.RLock()
		subs = g.pos[p][o.Key()]
		g.mu.RUnlock()
	}
	if len(subs) == 0 {
		return nil
	}
	out := g.in.AppendKeys(make([]IRI, 0, len(subs)), subs)
	sortIRIs(out)
	return out
}

// SubjectCount returns the number of subjects of (·, p, o) without
// materializing them; this is the document frequency of an attribute/value
// coordinate (§5.2 tf·idf).
func (g *Graph) SubjectCount(p IRI, o Term) int {
	if g.seg != nil {
		return g.seg.subjectCount(p, o.Key())
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.pos[p][o.Key()])
}

// PredicatesOf returns the distinct predicates on subject s, sorted.
func (g *Graph) PredicatesOf(s IRI) []IRI {
	if g.seg != nil {
		return g.seg.predicatesOf(g, s)
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	po := g.spo[s]
	if len(po) == 0 {
		return nil
	}
	out := make([]IRI, 0, len(po))
	for p := range po {
		out = append(out, p)
	}
	sortIRIs(out)
	return out
}

// Predicates returns every distinct predicate in the graph, sorted.
func (g *Graph) Predicates() []IRI {
	if g.seg != nil {
		return g.seg.predicates()
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]IRI, 0, len(g.pos))
	for p := range g.pos {
		out = append(out, p)
	}
	sortIRIs(out)
	return out
}

// AllSubjects returns every distinct subject in the graph, sorted.
func (g *Graph) AllSubjects() []IRI {
	if g.seg != nil {
		return g.seg.allSubjects(g)
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]IRI, 0, len(g.spo))
	for s := range g.spo {
		out = append(out, s)
	}
	sortIRIs(out)
	return out
}

// ObjectsOf returns the distinct object terms appearing with predicate p,
// sorted by key. This enumerates the value domain of an attribute (used to
// build facet histograms and range widgets).
func (g *Graph) ObjectsOf(p IRI) []Term {
	if g.seg != nil {
		return g.seg.objectsOf(p)
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	os := g.pos[p]
	if len(os) == 0 {
		return nil
	}
	out := make([]Term, 0, len(os))
	for k := range os {
		out = append(out, g.terms[k])
	}
	sortTerms(out)
	return out
}

// SubjectsWithProperty returns the distinct subjects carrying any value of
// predicate p, sorted (the property's coverage set).
func (g *Graph) SubjectsWithProperty(p IRI) []IRI {
	set := g.SubjectIDsWithProperty(p)
	if set.IsEmpty() {
		return nil
	}
	out := g.in.AppendKeys(make([]IRI, 0, set.Len()), set.Slice())
	sortIRIs(out)
	return out
}

// --- ID plane -------------------------------------------------------------

// Interner exposes the graph-owned subject interner so sibling indexes
// (text, vector) can share the same dense ID space.
func (g *Graph) Interner() *ids.Interner[IRI] { return g.in }

// SubjectID returns the dense item ID of s and whether s has ever been
// interned. IDs are assigned on first Add and never reused.
func (g *Graph) SubjectID(s IRI) (uint32, bool) { return g.in.Lookup(s) }

// SubjectByID rehydrates a dense item ID back to its IRI.
func (g *Graph) SubjectByID(id uint32) IRI { return g.in.Key(id) }

// SubjectIDSet returns the posting list of (·, p, o) as a dense ID set —
// an immutable snapshot (postings are copy-on-write), shared with the
// index, so this is allocation-free.
//
//magnet:hot
func (g *Graph) SubjectIDSet(p IRI, o Term) itemset.Set {
	if g.seg != nil {
		return g.seg.subjectIDSet(p, o.Key())
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return itemset.FromSorted(g.pos[p][o.Key()])
}

// AllSubjectIDs returns the IDs of every live subject as an immutable
// snapshot, allocation-free.
//
//magnet:hot
func (g *Graph) AllSubjectIDs() itemset.Set {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return itemset.FromSorted(g.subjIDs)
}

// SubjectIDsWithProperty returns the IDs of subjects carrying any value of
// predicate p (the property's coverage set), unioned via bitmap.
func (g *Graph) SubjectIDsWithProperty(p IRI) itemset.Set {
	if g.seg != nil {
		return g.seg.subjectIDsWithProperty(g, p)
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	os := g.pos[p]
	if len(os) == 0 {
		return itemset.Set{}
	}
	b := itemset.NewBits(g.in.Len())
	for _, subs := range os {
		b.AddSlice(subs)
	}
	return b.Extract()
}

// ForEachValuePosting calls f for every distinct value of predicate p with
// its subject posting list, in ascending object-key order, until f returns
// false. The posting sets are immutable snapshots; f runs without the
// graph lock held.
func (g *Graph) ForEachValuePosting(p IRI, f func(o Term, subjects itemset.Set) bool) {
	if g.seg != nil {
		g.seg.forEachValuePosting(p, f)
		return
	}
	for _, v := range g.sortedValues(p) {
		if !f(v.o, itemset.FromSorted(v.subs)) {
			return
		}
	}
}

// valuePosting is one value of a predicate with its subject posting.
type valuePosting struct {
	key  string // the term's serialized key — the pos map key, precomputed
	o    Term
	subs []uint32
}

// sortedValues is one predicate's memoized value list (see valuesMemo).
type sortedValues struct {
	version uint64
	vals    []valuePosting
}

// sortedValues returns p's values sorted by key, from the memo while the
// graph is unchanged since it was filled. The returned slice is shared and
// never written after it is memoized. Concurrent first readers may each
// build the list; they build the same one and the last store wins.
func (g *Graph) sortedValues(p IRI) []valuePosting {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.valuesMu.Lock()
	memo, ok := g.valuesMemo[p]
	g.valuesMu.Unlock()
	if ok && memo.version == g.version {
		return memo.vals
	}
	os := g.pos[p]
	vals := make([]valuePosting, 0, len(os))
	for k, subs := range os {
		vals = append(vals, valuePosting{k, g.terms[k], subs})
	}
	// Sorting by the stored key avoids re-serializing every term O(n log n)
	// times in the comparator.
	sort.Slice(vals, func(i, j int) bool { return vals[i].key < vals[j].key })
	g.valuesMu.Lock()
	if g.valuesMemo == nil {
		g.valuesMemo = make(map[IRI]sortedValues)
	}
	g.valuesMemo[p] = sortedValues{version: g.version, vals: vals}
	g.valuesMu.Unlock()
	return vals
}

// SubjectIDsOf returns the dense IDs of items as a set, skipping items the
// graph has never seen (they carry no triples). It is how a collection
// held as IRIs enters the ID plane.
func (g *Graph) SubjectIDsOf(items []IRI) itemset.Set {
	ids := make([]uint32, 0, len(items))
	for _, it := range items {
		if id, ok := g.in.Lookup(it); ok {
			ids = append(ids, id)
		}
	}
	return itemset.FromUnsorted(ids)
}

// SubjectsFromIDs rehydrates a slice of item IDs to IRIs, sorted lexically
// — the render-boundary conversion that keeps pane output byte-identical
// to the string-keyed engine (ID order is interning order, not lexical).
func (g *Graph) SubjectsFromIDs(ids []uint32) []IRI {
	if len(ids) == 0 {
		return nil
	}
	out := g.in.AppendKeys(make([]IRI, 0, len(ids)), ids)
	sortIRIs(out)
	return out
}

// Statements returns every triple with subject s, sorted.
func (g *Graph) Statements(s IRI) []Statement {
	if g.seg != nil {
		return g.seg.statements(g, s)
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Statement
	for p, objs := range g.spo[s] {
		for _, o := range objs {
			out = append(out, Statement{s, p, o})
		}
	}
	sortStatements(out)
	return out
}

// AllStatements returns every triple in the graph, sorted. Intended for
// serialization and tests; large graphs should iterate with ForEach.
func (g *Graph) AllStatements() []Statement {
	if g.seg != nil {
		out := make([]Statement, 0, g.size)
		g.seg.forEach(g, func(st Statement) bool {
			out = append(out, st)
			return true
		})
		sortStatements(out)
		return out
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]Statement, 0, g.size)
	for s, po := range g.spo {
		for p, objs := range po {
			for _, o := range objs {
				out = append(out, Statement{s, p, o})
			}
		}
	}
	sortStatements(out)
	return out
}

// ForEach calls f for every triple until f returns false. Iteration order
// is unspecified. The graph must not be mutated from within f.
func (g *Graph) ForEach(f func(Statement) bool) {
	if g.seg != nil {
		g.seg.forEach(g, f)
		return
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	for s, po := range g.spo {
		for p, objs := range po {
			for _, o := range objs {
				if !f(Statement{s, p, o}) {
					return
				}
			}
		}
	}
}

// SubjectsOfType returns all subjects with rdf:type t, sorted.
func (g *Graph) SubjectsOfType(t IRI) []IRI {
	return g.Subjects(Type, t)
}

// Types returns the rdf:type objects of s that are IRIs, sorted.
func (g *Graph) Types(s IRI) []IRI {
	objs := g.Objects(s, Type)
	out := make([]IRI, 0, len(objs))
	for _, o := range objs {
		if t, ok := o.(IRI); ok {
			out = append(out, t)
		}
	}
	return out
}

// Label returns the best display name for a resource: its magnet:label or
// rdfs:label if present, otherwise its humanized local name. When no label
// exists the raw identifier behaviour of the paper's Figure 7 is preserved
// by callers that pass rawIfUnlabeled.
func (g *Graph) Label(s IRI) string {
	for _, p := range []IRI{AnnLabel, Label, DCTitle} {
		if o, ok := g.Object(s, p); ok {
			if l, isLit := o.(Literal); isLit && l.Lexical != "" {
				return l.Lexical
			}
		}
	}
	return PlainName(s)
}

// HasLabel reports whether s carries an explicit label triple.
func (g *Graph) HasLabel(s IRI) bool {
	for _, p := range []IRI{AnnLabel, Label, DCTitle} {
		if _, ok := g.Object(s, p); ok {
			return true
		}
	}
	return false
}

// TermLabel returns the display form of any term: labels for IRIs, lexical
// forms for literals.
func (g *Graph) TermLabel(t Term) string {
	switch v := t.(type) {
	case IRI:
		return g.Label(v)
	case Literal:
		return v.Lexical
	default:
		return t.String()
	}
}

func sortIRIs(s []IRI) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func sortTerms(s []Term) {
	sort.Slice(s, func(i, j int) bool { return s[i].Key() < s[j].Key() })
}

func sortStatements(s []Statement) {
	sort.Slice(s, func(i, j int) bool { return s[i].Key() < s[j].Key() })
}
