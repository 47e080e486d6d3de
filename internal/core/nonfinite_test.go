package core_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"magnet/internal/core"
	"magnet/internal/facets"
	"magnet/internal/rdf"
	"magnet/internal/schema"
)

// TestNonFiniteLiteralsAreNotNumeric puts a NaN, +Inf or -Inf double
// beside finite values of an annotated numeric property. The non-finite
// literal reads as non-numeric, like a malformed numeral: every vector row
// stays finite, every other item's similarity list equals the one on the
// same graph without that literal, and range previews, outliers and range
// queries over the property return without panic.
func TestNonFiniteLiteralsAreNotNumeric(t *testing.T) {
	const ns = "http://example.org/nf/"
	pSize, pColor := rdf.IRI(ns+"size"), rdf.IRI(ns+"color")
	item := func(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("%sitem/%02d", ns, i)) }
	build := func(odd string) *core.Magnet {
		b := rdf.NewBuilder()
		for i := 0; i < 20; i++ {
			b.Add(item(i), rdf.Type, rdf.IRI(ns+"Thing"))
			b.Add(item(i), pColor, rdf.IRI(fmt.Sprintf("%scolor/%d", ns, i%4)))
			b.Add(item(i), pSize, rdf.Literal{Lexical: fmt.Sprintf("%d.5", i%7), Datatype: rdf.XSDDouble})
		}
		if odd != "" {
			// The first item by ID: the first value every range observes.
			b.Add(item(0), pSize, rdf.Literal{Lexical: odd, Datatype: rdf.XSDDouble})
			b.Add(item(19), pSize, rdf.Literal{Lexical: odd, Datatype: rdf.XSDDouble})
		}
		schema.SetValueType(b, pSize, schema.Float)
		return core.Open(b, core.Options{})
	}
	clean := build("")
	for _, odd := range []string{"NaN", "Inf", "-Inf", "+Inf", "infinity"} {
		m := build(odd)
		for i, w := range m.Model().Store().Columns().RowWeight {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				t.Fatalf("%s: vector weight %d is %v", odd, i, w)
			}
		}
		for i := 1; i < 19; i++ {
			got, want := m.Model().SimilarToItem(item(i), 25), clean.Model().SimilarToItem(item(i), 25)
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: SimilarToItem(%s) = %v, without the literal %v", odd, item(i), got, want)
			}
		}
		all := m.ItemIDs()
		h, ok := facets.NumericHistogram(m.Schema(), all, pSize, 6)
		if !ok || math.IsNaN(h.Min) || math.IsInf(h.Max, 0) || h.Min != 0.5 || h.Max != 6.5 {
			t.Fatalf("%s: histogram = %+v, %v", odd, h, ok)
		}
		want, _ := facets.NumericHistogram(clean.Schema(), clean.ItemIDs(), pSize, 6)
		if !reflect.DeepEqual(h, want) {
			t.Fatalf("%s: histogram = %+v, without the literal %+v", odd, h, want)
		}
		if got, want := facets.Outliers(m.Schema(), all, pSize, 1), facets.Outliers(clean.Schema(), clean.ItemIDs(), pSize, 1); !reflect.DeepEqual(got.Slice(), want.Slice()) {
			t.Fatalf("%s: Outliers = %v, without the literal %v", odd, got.Slice(), want.Slice())
		}
		lo, hi := 2.0, 4.0
		s := m.NewSession()
		s.ApplyRange(pSize, &lo, &hi)
		if n := len(s.Items()); n == 0 {
			t.Fatalf("%s: range [2, 4] matched nothing", odd)
		}
	}
}
