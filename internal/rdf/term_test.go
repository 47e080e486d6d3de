package rdf

import (
	"testing"
	"testing/quick"
	"time"
)

func TestIRILocalName(t *testing.T) {
	tests := []struct {
		iri  IRI
		want string
	}{
		{IRI("http://example.org/ns#Recipe"), "Recipe"},
		{IRI("http://example.org/recipes/apple-pie"), "apple-pie"},
		{IRI("urn:isbn:12345"), "urn:isbn:12345"},
		{IRI("http://example.org/path/"), "http://example.org/path/"},
		{IRI(""), ""},
	}
	for _, tt := range tests {
		if got := tt.iri.LocalName(); got != tt.want {
			t.Errorf("LocalName(%q) = %q, want %q", tt.iri, got, tt.want)
		}
	}
}

func TestLiteralConstructorsRoundTrip(t *testing.T) {
	if v, ok := NewInteger(-42).Int(); !ok || v != -42 {
		t.Errorf("NewInteger(-42).Int() = %d, %v", v, ok)
	}
	if v, ok := (Literal{Lexical: "3.5", Datatype: XSDDouble}).Float(); !ok || v != 3.5 {
		t.Errorf("xsd:double 3.5 Float() = %g, %v", v, ok)
	}
	if v, ok := NewBool(true).Bool(); !ok || !v {
		t.Errorf("NewBool(true).Bool() = %v, %v", v, ok)
	}
	when := time.Date(2003, 7, 31, 12, 30, 0, 0, time.UTC)
	if v, ok := NewTime(when).Time(); !ok || !v.Equal(when) {
		t.Errorf("NewTime round trip = %v, %v", v, ok)
	}
	if v, ok := (Literal{Lexical: "2003-07-31", Datatype: XSDDate}).Time(); !ok || v.Format("2006-01-02") != "2003-07-31" {
		t.Errorf("xsd:date Time() = %v, %v", v, ok)
	}
}

func TestLiteralFloatFromTemporal(t *testing.T) {
	when := time.Date(2003, 8, 1, 0, 0, 0, 0, time.UTC)
	f, ok := NewTime(when).Float()
	if !ok {
		t.Fatal("temporal literal should convert to float")
	}
	if int64(f) != when.Unix() {
		t.Errorf("Float() = %v, want %v", int64(f), when.Unix())
	}
}

func TestLiteralKindPredicates(t *testing.T) {
	tests := []struct {
		lit      Literal
		temporal bool
	}{
		{NewInteger(1), false},
		{Literal{Lexical: "1", Datatype: XSDDouble}, false},
		{NewString("1"), false},
		{NewTime(time.Now()), true},
		{Literal{Lexical: "2003-07-31", Datatype: XSDDate}, true},
		{NewBool(false), false},
	}
	for _, tt := range tests {
		if got := tt.lit.IsTemporal(); got != tt.temporal {
			t.Errorf("%v.IsTemporal() = %v, want %v", tt.lit, got, tt.temporal)
		}
	}
}

func TestTermKeysDistinguishKinds(t *testing.T) {
	// The integer literal "1", the plain string "1", and an IRI "1" must
	// all have distinct keys.
	keys := map[string]string{}
	terms := map[string]Term{
		"integer": NewInteger(1),
		"string":  NewString("1"),
		"iri":     IRI("1"),
		"blank":   Blank("1"),
		"lang":    Literal{Lexical: "1", Lang: "en"},
	}
	for name, tm := range terms {
		k := tm.Key()
		if prev, dup := keys[k]; dup {
			t.Errorf("key collision between %s and %s: %q", prev, name, k)
		}
		keys[k] = name
	}
}

func TestLiteralStringEscaping(t *testing.T) {
	tests := []struct {
		in   Literal
		want string
	}{
		{NewString(`plain`), `"plain"`},
		{NewString("a\"b"), `"a\"b"`},
		{NewString("a\\b"), `"a\\b"`},
		{NewString("a\nb"), `"a\nb"`},
		{NewString("tab\there"), `"tab\there"`},
		{Literal{Lexical: "hi", Lang: "en"}, `"hi"@en`},
		{NewInteger(7), `"7"^^<http://www.w3.org/2001/XMLSchema#integer>`},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("String() = %s, want %s", got, tt.want)
		}
	}
}

func TestPlainName(t *testing.T) {
	tests := []struct {
		in   IRI
		want string
	}{
		{IRI(NSMagnet + "cookingMethod"), "cooking Method"},
		{IRI(NSMagnet + "cooking_method"), "cooking method"},
		{IRI(NSMagnet + "Cuisine"), "Cuisine"},
		{IRI(NSMagnet + "hasXMLPath"), "has XMLPath"},
	}
	for _, tt := range tests {
		if got := PlainName(tt.in); got != tt.want {
			t.Errorf("PlainName(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestQuickLiteralIntRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		got, ok := NewInteger(v).Int()
		return ok && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickLiteralStringEscapeNeverPanicsAndQuotes(t *testing.T) {
	f := func(s string) bool {
		out := NewString(s).String()
		return len(out) >= 2 && out[0] == '"'
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
