package core_test

import (
	"math"
	"strings"
	"testing"

	"magnet/internal/core"
	"magnet/internal/rdf"
)

// FuzzVectorRowsFinite compiles fuzzed N-Triples with every subject an
// item and checks that every compiled vector weight is finite: a
// non-finite literal (NaN, ±Inf) or an extreme magnitude must never reach
// a row, whether the property's numeric type is inferred or annotated.
func FuzzVectorRowsFinite(f *testing.F) {
	const ns = "http://e/"
	line := func(s, p string, o rdf.Term) string {
		return rdf.Statement{Subject: rdf.IRI(ns + s), Predicate: rdf.IRI(p), Object: o}.String() + "\n"
	}
	double := func(s, lex string) string {
		return line(s, ns+"size", rdf.Literal{Lexical: lex, Datatype: rdf.XSDDouble})
	}
	finite := double("a", "1.5") + double("b", "2.5") + double("c", "40")
	annotated := line("size", string(rdf.AnnValueType), rdf.NewString("float"))
	for _, odd := range []string{"NaN", "INF", "-INF", "1e308", "-1e308", "4.9e-324"} {
		f.Add(finite + double("d", odd))
		f.Add(finite + double("a", odd) + annotated)
	}
	f.Add(finite + line("a", ns+"title", rdf.NewString("lemon NaN INF")))
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		b, err := rdf.ReadNTriples(strings.NewReader(input))
		if err != nil {
			return
		}
		m := core.Open(b, core.Options{IndexAllSubjects: true})
		defer m.Close()
		for i, w := range m.Model().Store().Columns().RowWeight {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				t.Fatalf("vector weight %d is %v", i, w)
			}
		}
	})
}
