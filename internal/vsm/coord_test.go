package vsm

import (
	"reflect"
	"testing"
	"testing/quick"

	"magnet/internal/rdf"
)

const ex = "http://example.org/"

func TestCoordKeyRoundTrip(t *testing.T) {
	coords := []Coord{
		{Kind: CoordObject, Path: []rdf.IRI{rdf.IRI(ex + "cuisine")}, Value: rdf.IRI(ex + "Greek")},
		{Kind: CoordObject, Path: []rdf.IRI{rdf.IRI(ex + "p"), rdf.IRI(ex + "q")}, Value: rdf.NewInteger(4)},
		{Kind: CoordObject, Path: []rdf.IRI{rdf.IRI(ex + "p")}, Value: rdf.Literal{Lexical: "hi there", Lang: "en"}},
		{Kind: CoordObject, Path: []rdf.IRI{rdf.IRI(ex + "p")}, Value: rdf.Blank("b1")},
		{Kind: CoordWord, Path: []rdf.IRI{rdf.DCTitle}, Word: "butter"},
		{Kind: CoordWord, Path: []rdf.IRI{rdf.IRI(ex + "body"), rdf.IRI(ex + "content")}, Word: "cost"},
		{Kind: CoordNumeric, Path: []rdf.IRI{rdf.IRI(ex + "date")}, Axis: "cos"},
		{Kind: CoordNumeric, Path: []rdf.IRI{rdf.IRI(ex + "date")}, Axis: "sin"},
	}
	for _, c := range coords {
		got, ok := ParseCoord(c.Key())
		if !ok {
			t.Errorf("ParseCoord(%q) failed", c.Key())
			continue
		}
		if !reflect.DeepEqual(got, c) {
			t.Errorf("round trip: got %#v, want %#v", got, c)
		}
	}
}

func TestParseCoordRejectsGarbage(t *testing.T) {
	bad := []string{
		"", "o", "x\x1fp\x1fpayload", "o\x1f\x1f<v", "t\x1fp\x1f",
		"n\x1fp\x1fneither", "o\x1fp\x1fgarbagepayload", "plainword",
	}
	for _, k := range bad {
		if _, ok := ParseCoord(k); ok {
			t.Errorf("ParseCoord(%q) accepted garbage", k)
		}
	}
}

func TestNumericKeysArePinned(t *testing.T) {
	c := Coord{Kind: CoordNumeric, Path: []rdf.IRI{rdf.IRI(ex + "d")}, Axis: "cos"}
	if got := c.Key()[:len(PinnedPrefix)]; got != PinnedPrefix {
		t.Errorf("numeric key prefix = %q, want %q", got, PinnedPrefix)
	}
	o := Coord{Kind: CoordObject, Path: []rdf.IRI{rdf.IRI(ex + "d")}, Value: rdf.IRI(ex + "v")}
	if o.Key()[:len(PinnedPrefix)] == PinnedPrefix {
		t.Error("object key must not look pinned")
	}
}

// TestPathKeyRoundTrip checks that property paths of one and three
// segments survive the round trip through a coordinate key.
func TestPathKeyRoundTrip(t *testing.T) {
	paths := [][]rdf.IRI{
		{rdf.IRI(ex + "a")},
		{rdf.IRI(ex + "a"), rdf.IRI(ex + "b"), rdf.IRI(ex + "c")},
	}
	for _, p := range paths {
		c := Coord{Kind: CoordWord, Path: p, Word: "w"}
		got, ok := ParseCoord(c.Key())
		if !ok || !reflect.DeepEqual(got.Path, p) {
			t.Errorf("round trip %v → %v, %v", p, got.Path, ok)
		}
	}
}

func TestPathLabel(t *testing.T) {
	path := []rdf.IRI{rdf.IRI(ex + "body"), rdf.IRI(ex + "creator")}
	got := PathLabel(path, func(p rdf.IRI) string { return p.LocalName() })
	if got != "body · creator" {
		t.Errorf("PathLabel = %q", got)
	}
}

// Property: coordinate keys round-trip for arbitrary word tokens and
// literal values that contain no control separators.
func TestQuickCoordRoundTrip(t *testing.T) {
	f := func(word string, lex string) bool {
		for _, r := range word + lex {
			if r == '\x1f' || r == '\x1e' {
				return true // separators excluded by construction
			}
		}
		if word == "" {
			word = "w"
		}
		cw := Coord{Kind: CoordWord, Path: []rdf.IRI{rdf.IRI(ex + "p")}, Word: word}
		gw, ok := ParseCoord(cw.Key())
		if !ok || !reflect.DeepEqual(gw, cw) {
			return false
		}
		co := Coord{Kind: CoordObject, Path: []rdf.IRI{rdf.IRI(ex + "p")}, Value: rdf.NewString(lex)}
		gc, ok := ParseCoord(co.Key())
		return ok && reflect.DeepEqual(gc, co)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
