package schema

import (
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"magnet/internal/rdf"
)

const ex = "http://example.org/"

// store freezes b and returns the annotation store over it.
func store(b *rdf.Builder) *Store { return NewStore(b.Freeze()) }

func TestParseValueTypeRoundTrip(t *testing.T) {
	for _, vt := range []ValueType{Resource, Text, Integer, Float, Date, Boolean} {
		if got := ParseValueType(vt.String()); got != vt {
			t.Errorf("round trip %v → %q → %v", vt, vt.String(), got)
		}
	}
	if ParseValueType("nonsense") != Unknown {
		t.Error("unknown strings should parse to Unknown")
	}
	if Unknown.String() != "unknown" {
		t.Error("Unknown.String()")
	}
}

func TestValueTypeNumeric(t *testing.T) {
	numeric := map[ValueType]bool{
		Integer: true, Float: true, Date: true,
		Resource: false, Text: false, Boolean: false, Unknown: false,
	}
	for vt, want := range numeric {
		if got := vt.Numeric(); got != want {
			t.Errorf("%v.Numeric() = %v, want %v", vt, got, want)
		}
	}
}

func TestLabelAnnotationPrecedence(t *testing.T) {
	b := rdf.NewBuilder()
	p := rdf.IRI(ex + "ns#stateBird")
	s := store(b)
	if got := s.Label(p); got != "state Bird" {
		t.Errorf("unannotated label = %q", got)
	}
	if s.HasLabel(p) {
		t.Error("HasLabel should be false before annotating")
	}
	SetLabel(b, p, "State bird")
	s = store(b)
	if got := s.Label(p); got != "State bird" {
		t.Errorf("annotated label = %q", got)
	}
	if !s.HasLabel(p) {
		t.Error("HasLabel should be true after annotating")
	}
}

func TestSetValueTypeReplaces(t *testing.T) {
	b := rdf.NewBuilder()
	p := rdf.IRI(ex + "area")
	SetValueType(b, p, Text)
	SetValueType(b, p, Integer)
	g := b.Freeze()
	if got := NewStore(g).AnnotatedValueType(p); got != Integer {
		t.Errorf("AnnotatedValueType = %v, want Integer", got)
	}
	// Only one annotation triple should remain.
	if n := len(g.Objects(p, rdf.AnnValueType)); n != 1 {
		t.Errorf("annotation triples = %d, want 1", n)
	}
}

func TestInferValueTypes(t *testing.T) {
	b := rdf.NewBuilder()
	item := rdf.IRI(ex + "i")

	b.Add(item, rdf.IRI(ex+"cuisine"), rdf.IRI(ex+"Greek"))
	b.Add(item, rdf.IRI(ex+"servings"), rdf.NewInteger(8))
	b.Add(item, rdf.IRI(ex+"rating"), rdf.Literal{Lexical: "4.5", Datatype: rdf.XSDDouble})
	b.Add(item, rdf.IRI(ex+"sent"), rdf.NewTime(time.Now()))
	b.Add(item, rdf.IRI(ex+"spicy"), rdf.NewBool(true))
	b.Add(item, rdf.IRI(ex+"bird"), rdf.NewString("Cardinal"))
	// Mixed IRI + literal falls back to Text.
	b.Add(item, rdf.IRI(ex+"mixed"), rdf.IRI(ex+"thing"))
	b.Add(item, rdf.IRI(ex+"mixed"), rdf.NewString("loose"))
	// Plain string that *looks* numeric must NOT be inferred numeric
	// (the Figure 7 → Figure 8 annotation story depends on this).
	b.Add(item, rdf.IRI(ex+"area"), rdf.NewString("570641"))
	s := store(b)

	tests := map[rdf.IRI]ValueType{
		rdf.IRI(ex + "cuisine"):  Resource,
		rdf.IRI(ex + "servings"): Integer,
		rdf.IRI(ex + "rating"):   Float,
		rdf.IRI(ex + "sent"):     Date,
		rdf.IRI(ex + "spicy"):    Boolean,
		rdf.IRI(ex + "bird"):     Text,
		rdf.IRI(ex + "mixed"):    Text,
		rdf.IRI(ex + "area"):     Text,
		rdf.IRI(ex + "absent"):   Unknown,
	}
	for p, want := range tests {
		if got := s.ValueType(p); got != want {
			t.Errorf("ValueType(%s) = %v, want %v", p.LocalName(), got, want)
		}
	}
}

func TestAnnotationOverridesInference(t *testing.T) {
	b := rdf.NewBuilder()
	p := rdf.IRI(ex + "area")
	b.Add(rdf.IRI(ex+"alaska"), p, rdf.NewString("570641"))
	if store(b).ValueType(p) != Text {
		t.Fatal("precondition: unannotated string area is Text")
	}
	SetValueType(b, p, Integer)
	if store(b).ValueType(p) != Integer {
		t.Error("annotation should override inference")
	}
}

func TestComposeAnnotation(t *testing.T) {
	b := rdf.NewBuilder()
	body := rdf.IRI(ex + "body")
	if store(b).Composable(body) {
		t.Error("unannotated property should not be composable")
	}
	SetCompose(b, body)
	s := store(b)
	if !s.Composable(body) {
		t.Error("Composable after SetCompose")
	}
}

func TestHiddenAnnotationAndVocabulary(t *testing.T) {
	b := rdf.NewBuilder()
	p := rdf.IRI(ex + "internalKey")
	if store(b).Hidden(p) {
		t.Error("ordinary property should not be hidden")
	}
	SetHidden(b, p)
	s := store(b)
	if !s.Hidden(p) {
		t.Error("Hidden after SetHidden")
	}
	// The annotation vocabulary itself is always hidden.
	for _, v := range []rdf.IRI{rdf.AnnLabel, rdf.AnnValueType, rdf.AnnCompose,
		rdf.AnnHidden, rdf.AnnFacet, rdf.Label} {
		if !s.Hidden(v) {
			t.Errorf("vocabulary property %v should be hidden", v)
		}
	}
}

func TestFacetAnnotation(t *testing.T) {
	b := rdf.NewBuilder()
	p := rdf.IRI(ex + "cuisine")
	if store(b).IsFacet(p) {
		t.Error("unannotated facet")
	}
	SetFacet(b, p)
	if !store(b).IsFacet(p) {
		t.Error("IsFacet after SetFacet")
	}
}

func TestTreeShaped(t *testing.T) {
	b := rdf.NewBuilder()
	if store(b).TreeShaped() {
		t.Error("default should not be tree-shaped")
	}
	SetTreeShaped(b)
	if !store(b).TreeShaped() {
		t.Error("TreeShaped after SetTreeShaped")
	}
}

func TestNumericAndNavigationProperties(t *testing.T) {
	b := rdf.NewBuilder()
	item := rdf.IRI(ex + "i")
	b.Add(item, rdf.IRI(ex+"servings"), rdf.NewInteger(4))
	b.Add(item, rdf.IRI(ex+"cuisine"), rdf.IRI(ex+"Greek"))
	b.Add(item, rdf.IRI(ex+"secret"), rdf.NewInteger(1))
	SetHidden(b, rdf.IRI(ex+"secret"))
	s := store(b)

	// secret is numeric but hidden, so it is no navigation axis; cuisine is
	// not numeric.
	nums := s.NumericProperties()
	if !reflect.DeepEqual(nums, []rdf.IRI{rdf.IRI(ex + "servings")}) {
		t.Errorf("NumericProperties = %v", nums)
	}
}

// TestNumbersFirstValueByKey: the column gives each subject its first
// parseable numeric value by key, skipping IRIs and unparseable literals,
// reads no value type (a plain-string area has a column), and answers
// "none" for subjects without a value, IDs past the subject table and
// predicates absent from the graph.
func TestNumbersFirstValueByKey(t *testing.T) {
	b := rdf.NewBuilder()
	p := rdf.IRI(ex + "n")
	a, c, d, e := rdf.IRI(ex+"a"), rdf.IRI(ex+"c"), rdf.IRI(ex+"d"), rdf.IRI(ex+"e")
	b.Add(a, p, rdf.NewInteger(9))
	b.Add(a, p, rdf.NewInteger(10)) // "10" sorts before "9"
	b.Add(c, p, rdf.IRI(ex+"many"))
	b.Add(c, p, rdf.Literal{Lexical: "x", Datatype: rdf.XSDInteger})
	b.Add(c, p, rdf.NewString("570641"))
	b.Add(d, p, rdf.IRI(ex+"few"))
	b.Add(e, rdf.Type, rdf.IRI(ex+"Thing"))
	g := b.Freeze()
	s := NewStore(g)
	nums := s.Numbers(p)
	want := map[rdf.IRI]float64{a: 10, c: 570641}
	for _, it := range []rdf.IRI{a, c, d, e} {
		id, _ := g.SubjectID(it)
		v, ok := nums.Value(id)
		if w, has := want[it]; ok != has || v != w {
			t.Errorf("Value(%s) = %v, %v; want %v, %v", it.LocalName(), v, ok, w, has)
		}
	}
	if got := nums.Values(); !reflect.DeepEqual(got, []float64{10, 570641}) {
		t.Errorf("Values = %v, want the first values in key order", got)
	}
	if _, ok := nums.Value(uint32(g.SubjectTable().Len()) + 7); ok {
		t.Error("an ID past the subject table has a value")
	}
	if s.Numbers(p) != nums {
		t.Error("a second read compiled a second column")
	}
	if absent := s.Numbers(rdf.IRI(ex + "absent")); absent.Rank(0) != 0 || len(absent.Values()) != 0 {
		t.Error("an absent predicate has values")
	}
}

// TestSlotsConcurrentReaders reads a fresh store's derived facts — value
// types and first-numeric columns — from 8 goroutines at once; each must
// see what a serial read of another fresh store sees.
func TestSlotsConcurrentReaders(t *testing.T) {
	b := rdf.NewBuilder()
	props := []rdf.IRI{rdf.IRI(ex + "n"), rdf.IRI(ex + "s"), rdf.IRI(ex + "absent")}
	for i := 0; i < 200; i++ {
		it := rdf.IRI(ex + "item/" + strconv.Itoa(i))
		b.Add(it, props[0], rdf.NewInteger(int64(i%17)))
		b.Add(it, props[1], rdf.NewString(strconv.Itoa(i%5)))
	}
	g := b.Freeze()
	type facts struct {
		vt   ValueType
		vals []float64
		rank []uint32
	}
	read := func(s *Store) []facts {
		var out []facts
		for _, p := range props {
			nums := s.Numbers(p)
			f := facts{vt: s.ValueType(p), vals: nums.Values()}
			for id := 0; id < g.SubjectTable().Len(); id++ {
				f.rank = append(f.rank, nums.Rank(uint32(id)))
			}
			out = append(out, f)
		}
		return out
	}
	want := read(NewStore(g))
	s := NewStore(g)
	got := make([][]facts, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = read(s)
		}()
	}
	wg.Wait()
	for i := range got {
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("reader %d saw different facts", i)
		}
	}
}

// graphFacts reads p's annotation facts from the graph by IRI, the way the
// Store answered before its slots held them.
func graphFacts(g *rdf.Graph, p rdf.IRI) Facts {
	flag := func(ann rdf.IRI) bool {
		o, ok := g.Object(p, ann)
		if !ok {
			return false
		}
		l, isLit := o.(rdf.Literal)
		if !isLit {
			return false
		}
		b, _ := l.Bool()
		return b
	}
	var f Facts
	switch p {
	case rdf.AnnLabel, rdf.AnnValueType, rdf.AnnCompose, rdf.AnnHidden,
		rdf.AnnFacet, rdf.AnnTreeShaped, rdf.Label, rdf.Comment:
		f.Hidden = true
	default:
		f.Hidden = flag(rdf.AnnHidden)
	}
	f.Composable = flag(rdf.AnnCompose)
	f.Facet = flag(rdf.AnnFacet)
	if o, ok := g.Object(p, rdf.AnnValueType); ok {
		if l, isLit := o.(rdf.Literal); isLit {
			f.Annotated = ParseValueType(l.Lexical)
		}
	}
	return f
}

// TestAnnotationFactsMatchGraph checks Hidden, Composable, IsFacet and
// AnnotatedValueType, which answer from a predicate's slot, against a read
// of the annotation triples: for every predicate (annotated true, false,
// with a non-literal or malformed value, Magnet's own vocabulary), and for
// annotated and unannotated IRIs that no triple uses as a predicate. Eight
// goroutines read a fresh store at once.
func TestAnnotationFactsMatchGraph(t *testing.T) {
	b := rdf.NewBuilder()
	p := func(s string) rdf.IRI { return rdf.IRI(ex + "p/" + s) }
	used := []rdf.IRI{p("hidden"), p("shown"), p("compose"), p("facet"), p("typed"), p("odd"), p("plain"), rdf.Label, rdf.Comment}
	for i, pred := range used {
		it := rdf.IRI(ex + "item/" + strconv.Itoa(i))
		b.Add(it, pred, rdf.NewString("v"))
		b.Add(it, rdf.Type, rdf.IRI(ex+"Thing"))
	}
	SetHidden(b, p("hidden"))
	b.Add(p("shown"), rdf.AnnHidden, rdf.NewBool(false))
	SetCompose(b, p("compose"))
	SetFacet(b, p("facet"))
	SetValueType(b, p("typed"), Date)
	b.Add(p("odd"), rdf.AnnHidden, rdf.IRI(ex+"yes"))
	b.Add(p("odd"), rdf.AnnCompose, rdf.NewString("maybe"))
	b.Add(p("odd"), rdf.AnnValueType, rdf.NewString("nonsense"))
	ghost := p("ghost") // annotated, never a predicate
	SetHidden(b, ghost)
	SetCompose(b, ghost)
	SetFacet(b, ghost)
	SetValueType(b, ghost, Integer)
	g := b.Freeze()

	probe := append(g.Predicates(), ghost, p("nowhere"), rdf.AnnFacet)
	read := func(s *Store) []Facts {
		out := make([]Facts, len(probe))
		for i, q := range probe {
			out[i] = Facts{Hidden: s.Hidden(q), Composable: s.Composable(q), Facet: s.IsFacet(q), Annotated: s.AnnotatedValueType(q)}
		}
		return out
	}
	want := make([]Facts, len(probe))
	for i, q := range probe {
		want[i] = graphFacts(g, q)
	}
	if !want[len(probe)-3].Hidden || !want[len(probe)-3].Facet || want[len(probe)-3].Annotated != Integer {
		t.Fatalf("graph read of the unused annotated IRI = %+v", want[len(probe)-3])
	}
	s := NewStore(g)
	got := make([][]Facts, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = read(s)
		}()
	}
	wg.Wait()
	for r := range got {
		for i, q := range probe {
			if got[r][i] != want[i] {
				t.Errorf("reader %d: %s facts = %+v, graph read %+v", r, q, got[r][i], want[i])
			}
		}
	}
	for i := range g.Predicates() {
		if f := s.FactsAt(i); f != want[i] {
			t.Errorf("FactsAt(%d) = %+v, graph read %+v", i, f, want[i])
		}
	}
}
