package rdf

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadNTriplesBasic(t *testing.T) {
	src := `
# a comment
<http://example.org/r1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Recipe> .
<http://example.org/r1> <http://purl.org/dc/elements/1.1/title> "Apple Cobbler Cake" .
<http://example.org/r1> <http://example.org/servings> "8"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://example.org/r1> <http://example.org/note> "say \"hi\"\nok"@en .
`
	b, err := ReadNTriples(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	g := b.Freeze()
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4", g.Len())
	}
	o, ok := g.Object(IRI("http://example.org/r1"), IRI("http://example.org/servings"))
	if !ok {
		t.Fatal("servings triple missing")
	}
	lit := o.(Literal)
	if v, _ := lit.Int(); v != 8 || lit.Datatype != XSDInteger {
		t.Errorf("servings = %v", lit)
	}
	note, _ := g.Object(IRI("http://example.org/r1"), IRI("http://example.org/note"))
	nl := note.(Literal)
	if nl.Lexical != "say \"hi\"\nok" || nl.Lang != "en" {
		t.Errorf("note = %#v", nl)
	}
}

func TestReadNTriplesSkolemizesBlanks(t *testing.T) {
	src := `_:b1 <http://example.org/p> _:b2 .`
	b, err := ReadNTriples(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	g := b.Freeze()
	subs := g.SubjectsFromIDs(g.AllSubjectIDs().Slice())
	if len(subs) != 1 || !strings.Contains(string(subs[0]), "genid/b1") {
		t.Errorf("subjects = %v, want skolemized b1", subs)
	}
	o, _ := g.Object(subs[0], IRI("http://example.org/p"))
	if iri, ok := o.(IRI); !ok || !strings.Contains(string(iri), "genid/b2") {
		t.Errorf("object = %v, want skolemized b2", o)
	}
}

func TestReadNTriplesUnicodeEscape(t *testing.T) {
	src := `<http://e/s> <http://e/p> "café" .`
	b, err := ReadNTriples(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	g := b.Freeze()
	o, _ := g.Object(IRI("http://e/s"), IRI("http://e/p"))
	if o.(Literal).Lexical != "café" {
		t.Errorf("lexical = %q", o.(Literal).Lexical)
	}
}

func TestReadNTriplesErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"missing dot", `<http://e/s> <http://e/p> "v"`},
		{"literal subject", `"v" <http://e/p> <http://e/o> .`},
		{"blank predicate", `<http://e/s> _:b <http://e/o> .`},
		{"unterminated iri", `<http://e/s <http://e/p> <http://e/o> .`},
		{"unterminated literal", `<http://e/s> <http://e/p> "v .`},
		{"dangling escape", `<http://e/s> <http://e/p> "v\" .`},
		{"truncated unicode", `<http://e/s> <http://e/p> "\u00" .`},
		{"garbage", `hello world .`},
		{"malformed language tag", `<http://e/s> <http://e/p> ""@@ .`},
		{"caret in datatype", `<http://e/s> <http://e/p> "x"^^<http://e/a^b> .`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ReadNTriples(strings.NewReader(tt.src))
			if err == nil {
				t.Fatalf("expected parse error for %q", tt.src)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Errorf("error %v is not a *ParseError", err)
			} else if pe.Line != 1 {
				t.Errorf("line = %d, want 1", pe.Line)
			}
		})
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	gb := testBuilder()
	gb.Add(IRI(ex+"r1"), IRI(ex+"note"), Literal{Lexical: "tab\there \"q\"", Lang: "en"})
	gb.Add(IRI(ex+"r1"), IRI(ex+"servings"), NewInteger(8))
	g := gb.Freeze()

	var buf bytes.Buffer
	if err := WriteNTriples(g, &buf); err != nil {
		t.Fatal(err)
	}
	b2, err := ReadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := g.AllStatements(), b2.Freeze().AllStatements()
	if len(a) != len(b) {
		t.Fatalf("round trip lost triples: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Errorf("triple %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: any plain-string literal survives a serialize/parse round trip.
func TestQuickLiteralRoundTrip(t *testing.T) {
	f := func(s string) bool {
		// N-Triples is line-oriented; our escaper handles the common control
		// characters. Skip other control characters (vertical tab etc.),
		// which the paper's data never contains.
		for _, r := range s {
			if r < 0x20 && r != '\n' && r != '\r' && r != '\t' {
				return true
			}
		}
		b := NewBuilder()
		b.Add(IRI(ex+"s"), IRI(ex+"p"), NewString(s))
		var buf bytes.Buffer
		if err := WriteNTriples(b.Freeze(), &buf); err != nil {
			return false
		}
		b2, err := ReadNTriples(&buf)
		if err != nil {
			return false
		}
		o, ok := b2.Freeze().Object(IRI(ex+"s"), IRI(ex+"p"))
		return ok && o.(Literal).Lexical == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
