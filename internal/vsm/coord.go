// Package vsm implements the paper's primary contribution (§5): a vector
// space model for semistructured data. Each attribute/value pair of an item
// becomes a coordinate; text-valued attributes are split into word
// coordinates; annotated attribute compositions add "transitive" coordinates
// (§5.1); numeric attributes are encoded on the first quadrant of the unit
// circle (§5.4). Weights follow the paper's tf·idf formula with
// per-attribute frequency normalization and unit-length document vectors
// (§5.2), enabling dot-product similarity and refinement-term extraction
// (§5.3) on top of the index.VectorStore substrate.
package vsm

import (
	"strings"

	"magnet/internal/rdf"
)

// CoordKind distinguishes the three coordinate families of the model.
type CoordKind byte

const (
	// CoordObject is an attribute/value coordinate whose value is an item
	// (or a non-text literal treated by identity).
	CoordObject CoordKind = 'o'
	// CoordWord is a word coordinate from a split text value.
	CoordWord CoordKind = 't'
	// CoordNumeric is one of the two unit-circle axes of a numeric
	// attribute ("cos" or "sin").
	CoordNumeric CoordKind = 'n'
)

const (
	sepField = "\x1f" // kind / path / payload separator
	sepPath  = "\x1e" // between property-path elements
)

// PinnedPrefix is the term prefix identifying numeric unit-circle
// coordinates, which bypass tf·idf weighting in the vector store (§5.4
// keeps their norm fixed by construction).
const PinnedPrefix = string(CoordNumeric) + sepField

// Coord is a decoded vector-space coordinate.
type Coord struct {
	Kind CoordKind
	// Path is the property path from the item to the value; length 1 for
	// direct attributes, longer for compositions (§5.1).
	Path []rdf.IRI
	// Value is the attribute value for CoordObject coordinates.
	Value rdf.Term
	// Word is the (stemmed) token for CoordWord coordinates.
	Word string
	// Axis is "cos" or "sin" for CoordNumeric coordinates.
	Axis string
}

// Key returns the canonical term key for the coordinate, used as the term
// string in the vector store.
func (c Coord) Key() string {
	var b strings.Builder
	b.WriteByte(byte(c.Kind))
	b.WriteString(sepField)
	for i, p := range c.Path {
		if i > 0 {
			b.WriteString(sepPath)
		}
		b.WriteString(string(p))
	}
	b.WriteString(sepField)
	switch c.Kind {
	case CoordObject:
		b.WriteString(c.Value.Key())
	case CoordWord:
		b.WriteString(c.Word)
	case CoordNumeric:
		b.WriteString(c.Axis)
	}
	return b.String()
}

// ParseCoord decodes a term key produced by Key. It reports false for keys
// not produced by this package.
func ParseCoord(key string) (Coord, bool) {
	parts := strings.SplitN(key, sepField, 3)
	if len(parts) != 3 || len(parts[0]) != 1 {
		return Coord{}, false
	}
	kind := CoordKind(parts[0][0])
	if kind != CoordObject && kind != CoordWord && kind != CoordNumeric {
		return Coord{}, false
	}
	c := Coord{Kind: kind}
	for _, seg := range strings.Split(parts[1], sepPath) {
		if seg == "" {
			return Coord{}, false
		}
		c.Path = append(c.Path, rdf.IRI(seg))
	}
	payload := parts[2]
	switch kind {
	case CoordObject:
		v, ok := rdf.ParseTermKey(payload)
		if !ok {
			return Coord{}, false
		}
		c.Value = v
	case CoordWord:
		if payload == "" {
			return Coord{}, false
		}
		c.Word = payload
	case CoordNumeric:
		if payload != "cos" && payload != "sin" {
			return Coord{}, false
		}
		c.Axis = payload
	}
	return c, true
}

// PathKey returns a canonical key for a property path (used to index
// numeric range statistics).
func PathKey(path []rdf.IRI) string {
	segs := make([]string, len(path))
	for i, p := range path {
		segs[i] = string(p)
	}
	return strings.Join(segs, sepPath)
}

// PathLabel renders a property path for display, e.g. "body · creator",
// using labels from the given labeler.
func PathLabel(path []rdf.IRI, label func(rdf.IRI) string) string {
	segs := make([]string, len(path))
	for i, p := range path {
		segs[i] = label(p)
	}
	return strings.Join(segs, " · ")
}
