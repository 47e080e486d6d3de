package rdf

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadNTriples checks the parser never panics and that everything it
// accepts survives a serialize/re-parse round trip. The seed corpus covers
// each syntactic form plus known-tricky inputs; `go test` runs the seeds,
// `go test -fuzz=FuzzReadNTriples` explores further.
func FuzzReadNTriples(f *testing.F) {
	seeds := []string{
		"",
		"# just a comment\n",
		"<http://e/s> <http://e/p> <http://e/o> .",
		`<http://e/s> <http://e/p> "plain lit" .`,
		`<http://e/s> <http://e/p> "typed"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
		`<http://e/s> <http://e/p> "tagged"@en .`,
		"_:b1 <http://e/p> _:b2 .",
		`<http://e/s> <http://e/p> "esc \" \\ \n \t é" .`,
		"<http://e/s> <http://e/p> \"unterminated",
		"<http://e/s> <http://e/p> .",
		"garbage line",
		`<http://e/s> <http://e/p> "\uD800" .`, // lone surrogate escape
		strings.Repeat(`<http://e/s> <http://e/p> "v" .`+"\n", 3),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		b, err := ReadNTriples(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		g := b.Freeze()
		var buf bytes.Buffer
		if err := WriteNTriples(g, &buf); err != nil {
			t.Fatalf("serialize accepted graph: %v", err)
		}
		g2, err := ReadNTriples(&buf)
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v\noutput: %q", err, buf.String())
		}
		if g2.Len() != g.Len() {
			t.Fatalf("round trip %d → %d triples", g.Len(), g2.Len())
		}
	})
}
