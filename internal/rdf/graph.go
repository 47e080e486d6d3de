package rdf

import (
	"sort"
	"sync"

	"magnet/internal/ids"
	"magnet/internal/itemset"
)

// Graph is a frozen, indexed triple store: the one read representation of
// the data. A Builder compiles its triples into a columnar image
// (GraphColumns, see segcols.go) and the Graph serves every read from it —
// the same image magnet-build writes to disk and OpenSegments maps back —
// so in-memory and segment-backed instances share one read path. Nothing
// changes after construction, so reads take no locks.
//
// Subjects carry dense uint32 item IDs in lexical IRI order; the reverse (pos) index stores sorted posting lists of those
// IDs. Hot layers (query, facets, vsm) consume the ID-plane accessors
// (SubjectIDSet, AllSubjectIDs, ForEachValuePosting) and rehydrate IRIs
// only at the render boundary.
//
// All IRI-level read accessors return freshly allocated, deterministically
// ordered slices so callers may retain and mutate them, and so navigation
// panes render identically run to run. Construction is O(1) in the corpus
// size: strings and terms are read lazily, once, on first use.
type Graph struct {
	//magnet:frozen
	c     GraphColumns
	subj  *ids.Table[IRI]
	preds *ids.Strings
	keys  *ids.Strings // object-term keys, sorted

	// terms is the object-term table, decoded from keys once on first use.
	termsOnce sync.Once
	terms     []Term

	// termSubj maps object term IDs to 1 + the subject ID of the same IRI
	// (0 when the term is no subject), compiled once on first use.
	termSubjOnce sync.Once
	termSubj     []uint32
}

// Len returns the number of triples in the graph.
func (g *Graph) Len() int { return int(g.c.Triples) }

// Columns returns the graph's columnar image (what magnet-build writes).
func (g *Graph) Columns() GraphColumns { return g.c }

func (g *Graph) decodeTerms() {
	ts := make([]Term, g.keys.Len())
	for i := range ts {
		if t, ok := ParseTermKey(g.keys.At(i)); ok {
			ts[i] = t
		}
	}
	g.terms = ts
}

// term returns object term i; nil for an out-of-range or corrupt entry
// (callers skip it).
//
//magnet:hot
func (g *Graph) term(i uint32) Term {
	g.termsOnce.Do(g.decodeTerms)
	if int(i) >= len(g.terms) {
		return nil
	}
	return g.terms[i]
}

//magnet:hot
func (g *Graph) findPred(p IRI) (uint32, bool) {
	i, ok := g.preds.Find(string(p))
	return uint32(i), ok
}

func (g *Graph) predIRI(i uint32) IRI { return IRI(g.preds.At(int(i))) }

// valRange returns predicate pid's value index range in PosValTerm.
//
//magnet:hot
func (g *Graph) valRange(pid uint32) (int, int) {
	return ids.Run(g.c.PosValStart, int(pid), len(g.c.PosValTerm))
}

// posting returns value v's sorted subject posting.
//
//magnet:hot
func (g *Graph) posting(v int) []uint32 {
	lo, hi := ids.Run(g.c.PosPostStart, v, len(g.c.PosPost))
	return g.c.PosPost[lo:hi]
}

// findValue binary-searches predicate pid's values for the term key.
//
//magnet:hot
func (g *Graph) findValue(pid uint32, key string) (int, bool) {
	lo, end := g.valRange(pid)
	hi := end
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.keys.At(int(g.c.PosValTerm[mid])) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && g.keys.At(int(g.c.PosValTerm[lo])) == key {
		return lo, true
	}
	return 0, false
}

// postingOf returns the subject posting of (·, p, o).
//
//magnet:hot
func (g *Graph) postingOf(p IRI, o Term) []uint32 {
	pid, ok := g.findPred(p)
	if !ok {
		return nil
	}
	v, ok := g.findValue(pid, o.Key())
	if !ok {
		return nil
	}
	return g.posting(v)
}

// pairRun returns subject sid's (s, p) pair index range in SpoPred.
//
//magnet:hot
func (g *Graph) pairRun(sid uint32) (int, int) {
	return ids.Run(g.c.SpoPredStart, int(sid), len(g.c.SpoPred))
}

// pairObjs returns the term-ID row of the (s, p) pair at absolute pair
// index i, ascending (key order).
//
//magnet:hot
func (g *Graph) pairObjs(i int) []uint32 {
	lo, hi := ids.Run(g.c.SpoObjStart, i, len(g.c.SpoObj))
	return g.c.SpoObj[lo:hi]
}

// objectIDs returns the term-ID row of (s, p, ·); nil when absent.
//
//magnet:hot
func (g *Graph) objectIDs(s, p IRI) []uint32 {
	sid, ok := g.subj.Lookup(s)
	if !ok {
		return nil
	}
	pid, ok := g.findPred(p)
	if !ok {
		return nil
	}
	base, end := g.pairRun(sid)
	row := g.c.SpoPred[base:end]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < pid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo] == pid {
		return g.pairObjs(base + lo)
	}
	return nil
}

// Has reports whether the triple (s, p, o) is present.
func (g *Graph) Has(s, p IRI, o Term) bool {
	tid, ok := g.keys.Find(o.Key())
	if !ok {
		return false
	}
	objs := g.objectIDs(s, p)
	i := searchU32(objs, uint32(tid))
	return i < len(objs) && objs[i] == uint32(tid)
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

// HasSubject reports whether any triple has subject s.
func (g *Graph) HasSubject(s IRI) bool {
	sid, ok := g.subj.Lookup(s)
	if !ok {
		return false
	}
	lo, hi := g.pairRun(sid)
	return hi > lo
}

// Objects returns all objects of triples (s, p, ·), sorted by key.
func (g *Graph) Objects(s, p IRI) []Term {
	objs := g.objectIDs(s, p)
	if len(objs) == 0 {
		return nil
	}
	out := make([]Term, 0, len(objs))
	for _, t := range objs {
		if term := g.term(t); term != nil {
			out = append(out, term)
		}
	}
	return out
}

// Object returns one object of (s, p, ·) — the least by key — and whether
// any exists. Useful for functional properties such as labels.
func (g *Graph) Object(s, p IRI) (Term, bool) {
	for _, t := range g.objectIDs(s, p) {
		if term := g.term(t); term != nil {
			return term, true
		}
	}
	return nil, false
}

// ObjectCount returns the number of objects of (s, p, ·) without
// materializing them (used for per-attribute tf normalization, §5.2).
func (g *Graph) ObjectCount(s, p IRI) int { return len(g.objectIDs(s, p)) }

// Subjects returns all subjects of triples (·, p, o), sorted.
func (g *Graph) Subjects(p IRI, o Term) []IRI {
	return g.SubjectsFromIDs(g.postingOf(p, o))
}

// SubjectCount returns the number of subjects of (·, p, o) without
// materializing them; this is the document frequency of an attribute/value
// coordinate (§5.2 tf·idf).
func (g *Graph) SubjectCount(p IRI, o Term) int { return len(g.postingOf(p, o)) }

// PredicatesOf returns the distinct predicates on subject s, sorted.
func (g *Graph) PredicatesOf(s IRI) []IRI {
	sid, ok := g.subj.Lookup(s)
	if !ok {
		return nil
	}
	lo, hi := g.pairRun(sid)
	if lo == hi {
		return nil
	}
	out := make([]IRI, 0, hi-lo)
	for _, pid := range g.c.SpoPred[lo:hi] {
		out = append(out, g.predIRI(pid))
	}
	return out // ascending predID = lexical order
}

// Predicates returns every distinct predicate in the graph, sorted.
func (g *Graph) Predicates() []IRI {
	n := g.preds.Len()
	out := make([]IRI, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.predIRI(uint32(i)))
	}
	return out
}

// PredicateCount returns the number of distinct predicates, the length of
// Predicates().
func (g *Graph) PredicateCount() int { return g.preds.Len() }

// PredicateAt returns the predicate at index i of Predicates().
func (g *Graph) PredicateAt(i int) IRI { return g.predIRI(uint32(i)) }

// PredicateIndex returns p's position in Predicates(), and whether p occurs
// in the graph. Stores that keep one slot per predicate index them by it.
func (g *Graph) PredicateIndex(p IRI) (int, bool) {
	i, ok := g.findPred(p)
	return int(i), ok
}

// ObjectsOf returns the distinct object terms appearing with predicate p,
// sorted by key. This enumerates the value domain of an attribute (used to
// build facet histograms and range widgets).
func (g *Graph) ObjectsOf(p IRI) []Term {
	pid, ok := g.findPred(p)
	if !ok {
		return nil
	}
	lo, hi := g.valRange(pid)
	if lo == hi {
		return nil
	}
	out := make([]Term, 0, hi-lo)
	for _, t := range g.c.PosValTerm[lo:hi] {
		if term := g.term(t); term != nil {
			out = append(out, term)
		}
	}
	return out // ascending termID = key order
}

// SubjectsWithProperty returns the distinct subjects carrying any value of
// predicate p, sorted (the property's coverage set).
func (g *Graph) SubjectsWithProperty(p IRI) []IRI {
	return g.SubjectsFromIDs(g.SubjectIDsWithProperty(p).Slice())
}

// --- ID plane -------------------------------------------------------------

// SubjectTable exposes the graph's frozen subject key table so the query
// engine's sets share the graph's dense ID space.
func (g *Graph) SubjectTable() *ids.Table[IRI] { return g.subj }

// SubjectID returns the dense item ID of s and whether s is a known
// subject.
func (g *Graph) SubjectID(s IRI) (uint32, bool) { return g.subj.Lookup(s) }

// SubjectByID rehydrates a dense item ID back to its IRI.
func (g *Graph) SubjectByID(id uint32) IRI { return g.subj.Key(id) }

// SubjectIDSet returns the posting list of (·, p, o) as a dense ID set: two
// binary searches and a slice of the image, allocation-free.
//
//magnet:hot
func (g *Graph) SubjectIDSet(p IRI, o Term) itemset.Set {
	return itemset.FromSorted(g.postingOf(p, o))
}

// AllSubjectIDs returns the IDs of every subject: [0, n), since every
// compiled subject carries a triple.
func (g *Graph) AllSubjectIDs() itemset.Set {
	ids := make([]uint32, g.subj.Len())
	for i := range ids {
		ids[i] = uint32(i)
	}
	return itemset.FromSorted(ids)
}

// SubjectIDsWithProperty returns the IDs of subjects carrying any value of
// predicate p (the property's coverage set), unioned via bitmap.
func (g *Graph) SubjectIDsWithProperty(p IRI) itemset.Set {
	pid, ok := g.findPred(p)
	if !ok {
		return itemset.Set{}
	}
	lo, hi := g.valRange(pid)
	if lo == hi {
		return itemset.Set{}
	}
	n := g.subj.Len()
	b := itemset.NewBits(n)
	for v := lo; v < hi; v++ {
		b.AddSliceBelow(g.posting(v), n)
	}
	return b.Extract()
}

// ForEachValuePosting calls f for every distinct value of predicate p with
// its subject posting list, in ascending object-key order, until f returns
// false.
func (g *Graph) ForEachValuePosting(p IRI, f func(o Term, subjects itemset.Set) bool) {
	pid, ok := g.findPred(p)
	if !ok {
		return
	}
	lo, hi := g.valRange(pid)
	for v := lo; v < hi; v++ {
		term := g.term(g.c.PosValTerm[v])
		if term == nil {
			continue
		}
		if !f(term, itemset.FromSorted(g.posting(v))) {
			return
		}
	}
}

// SubjectIDsOf returns the dense IDs of items as a set, skipping items the
// graph has never seen (they carry no triples). It is how a collection
// held as IRIs enters the ID plane.
func (g *Graph) SubjectIDsOf(items []IRI) itemset.Set {
	ids := make([]uint32, 0, len(items))
	for _, it := range items {
		if id, ok := g.subj.Lookup(it); ok {
			ids = append(ids, id)
		}
	}
	return itemset.FromUnsorted(ids)
}

// SubjectsFromIDs rehydrates a slice of item IDs to IRIs — the
// render-boundary conversion. Ascending IDs give lexically sorted IRIs.
func (g *Graph) SubjectsFromIDs(ids []uint32) []IRI {
	if len(ids) == 0 {
		return nil
	}
	return g.subj.AppendKeys(make([]IRI, 0, len(ids)), ids)
}

// --- Forward rows ---------------------------------------------------------

// SubjectPairs returns subject sid's forward row as a range [lo, hi) of
// absolute pair indexes, one (s, p) pair per distinct predicate in
// ascending predicate index (Predicates order). PairPredicate and
// PairObjects read each pair. An unknown ID has an empty row.
//
//magnet:hot
func (g *Graph) SubjectPairs(sid uint32) (lo, hi int) { return g.pairRun(sid) }

// PairPredicate returns the predicate index (PredicateIndex) of the pair at
// absolute index i, which must come from SubjectPairs.
//
//magnet:hot
func (g *Graph) PairPredicate(i int) int { return int(g.c.SpoPred[i]) }

// PairObjects returns the object term IDs of the pair at absolute index i,
// ascending (object-key order). Callers must not modify it.
//
//magnet:hot
func (g *Graph) PairObjects(i int) []uint32 { return g.pairObjs(i) }

// TermAt returns object term tid; nil for an out-of-range or corrupt
// entry (callers skip it, as Objects does).
//
//magnet:hot
func (g *Graph) TermAt(tid uint32) Term { return g.term(tid) }

// TermCount returns the number of object terms: term IDs are [0, n).
func (g *Graph) TermCount() int { return g.keys.Len() }

// TermSubject returns the subject ID of object term tid when the term is
// an IRI that is also a subject: the hop a composed attribute path takes
// from a value to that value's own forward row.
//
//magnet:hot
func (g *Graph) TermSubject(tid uint32) (uint32, bool) {
	g.termSubjOnce.Do(g.compileTermSubjects)
	if int(tid) >= len(g.termSubj) || g.termSubj[tid] == 0 {
		return 0, false
	}
	return g.termSubj[tid] - 1, true
}

func (g *Graph) compileTermSubjects() {
	g.termsOnce.Do(g.decodeTerms)
	ts := make([]uint32, len(g.terms))
	for i, t := range g.terms {
		if iri, ok := t.(IRI); ok {
			if sid, ok := g.subj.Lookup(iri); ok {
				ts[i] = sid + 1
			}
		}
	}
	g.termSubj = ts
}

// subjectStatements calls f for each triple of subject sid, in predicate
// then object-key order, until f returns false; it reports whether f
// never stopped it.
func (g *Graph) subjectStatements(sid uint32, f func(Statement) bool) bool {
	s := g.subj.Key(sid)
	lo, hi := g.pairRun(sid)
	for pair := lo; pair < hi; pair++ {
		p := g.predIRI(g.c.SpoPred[pair])
		for _, t := range g.pairObjs(pair) {
			if term := g.term(t); term != nil && !f(Statement{s, p, term}) {
				return false
			}
		}
	}
	return true
}

// AllStatements returns every triple in the graph, sorted. Intended for
// serialization and tests; large graphs should iterate with ForEach.
func (g *Graph) AllStatements() []Statement {
	out := make([]Statement, 0, g.Len())
	g.ForEach(func(st Statement) bool {
		out = append(out, st)
		return true
	})
	sortStatements(out)
	return out
}

// ForEach calls f for every triple until f returns false, in subject-ID
// order.
func (g *Graph) ForEach(f func(Statement) bool) {
	for sid := 0; sid < g.subj.Len(); sid++ {
		if !g.subjectStatements(uint32(sid), f) {
			return
		}
	}
}

// SubjectsOfType returns all subjects with rdf:type t, sorted.
func (g *Graph) SubjectsOfType(t IRI) []IRI {
	return g.Subjects(Type, t)
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

func sortStatements(s []Statement) {
	sort.Slice(s, func(i, j int) bool { return s[i].Key() < s[j].Key() })
}
