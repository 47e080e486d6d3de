package schema

import (
	"reflect"
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
	b.Add(item, rdf.IRI(ex+"rating"), rdf.NewFloat(4.5))
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
	if got := s.ComposableProperties(); !reflect.DeepEqual(got, []rdf.IRI{body}) {
		t.Errorf("ComposableProperties = %v", got)
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

	nums := s.NumericProperties()
	if !reflect.DeepEqual(nums, []rdf.IRI{rdf.IRI(ex + "servings")}) {
		t.Errorf("NumericProperties = %v", nums)
	}
	nav := s.NavigationProperties()
	// secret hidden, annotation triples hidden; cuisine + servings remain.
	want := []rdf.IRI{rdf.IRI(ex + "cuisine"), rdf.IRI(ex + "servings")}
	if !reflect.DeepEqual(nav, want) {
		t.Errorf("NavigationProperties = %v, want %v", nav, want)
	}
}
