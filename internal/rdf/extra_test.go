package rdf

import (
	"reflect"
	"testing"
)

func TestObjectCountAndPredicatesOf(t *testing.T) {
	g := testGraph()
	if n := g.ObjectCount(IRI(ex+"r1"), IRI(ex+"ingredient")); n != 2 {
		t.Errorf("ObjectCount = %d", n)
	}
	preds := g.PredicatesOf(IRI(ex + "r1"))
	if len(preds) != 3 {
		t.Errorf("PredicatesOf = %v", preds)
	}
	for i := 1; i < len(preds); i++ {
		if preds[i] < preds[i-1] {
			t.Error("PredicatesOf not sorted")
		}
	}
	if g.PredicatesOf(IRI(ex+"missing")) != nil {
		t.Error("missing subject should have nil predicates")
	}
}

func TestSubjectsWithProperty(t *testing.T) {
	g := testGraph()
	subs := g.SubjectsWithProperty(IRI(ex + "ingredient"))
	want := []IRI{IRI(ex + "r1"), IRI(ex + "r2")}
	if !reflect.DeepEqual(subs, want) {
		t.Errorf("SubjectsWithProperty = %v", subs)
	}
	if got := g.SubjectsWithProperty(IRI(ex + "nope")); len(got) != 0 {
		t.Errorf("absent property = %v", got)
	}
}

func TestParseErrorMessage(t *testing.T) {
	e := &ParseError{Line: 3, Text: "bad", Msg: "boom"}
	msg := e.Error()
	for _, want := range []string{"3", "bad", "boom"} {
		if !containsStr(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestKindStringAndBlank(t *testing.T) {
	if KindIRI.String() != "iri" || KindLiteral.String() != "literal" || KindBlank.String() != "blank" {
		t.Error("Kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still print")
	}
	b := Blank("b1")
	if b.Kind() != KindBlank || b.String() != "_:b1" || b.Key() != "_:b1" {
		t.Errorf("blank = %v %v %v", b.Kind(), b.String(), b.Key())
	}
	if IRI("x").Kind() != KindIRI || NewString("x").Kind() != KindLiteral {
		t.Error("term kinds wrong")
	}
}
