// Package rdf implements the semistructured data substrate used by Magnet:
// an RDF data model (IRIs, typed literals, statements) and an in-memory,
// concurrency-safe, indexed triple store, together with N-Triples
// serialization. Magnet (Sinha & Karger, SIGMOD 2005) consumes RDF graphs;
// this package is the from-scratch replacement for the Haystack RDF store
// the paper ran on.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind identifies the kind of an RDF term.
type Kind int

const (
	// KindIRI is a resource identified by an IRI.
	KindIRI Kind = iota
	// KindLiteral is a literal value (string, number, date, ...).
	KindLiteral
	// KindBlank is a blank (anonymous) node.
	KindBlank
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindIRI:
		return "iri"
	case KindLiteral:
		return "literal"
	case KindBlank:
		return "blank"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Term is an RDF term: an IRI, a literal, or a blank node.
type Term interface {
	// Kind reports which kind of term this is.
	Kind() Kind
	// Key returns a canonical representation used as a map key. Two terms
	// are equal exactly when their keys are equal.
	Key() string
	// String returns the N-Triples surface form of the term.
	String() string
}

// IRI is a resource term identified by an IRI (or any opaque identifier;
// Magnet never dereferences IRIs).
type IRI string

// Kind implements Term.
func (IRI) Kind() Kind { return KindIRI }

// Key implements Term. IRIs are keyed by their text prefixed with '<' so
// they can never collide with literal keys.
func (i IRI) Key() string { return "<" + string(i) }

// String returns the N-Triples form, e.g. <http://example.org/x>.
func (i IRI) String() string { return "<" + string(i) + ">" }

// LocalName returns the fragment or final path segment of the IRI, the
// conventional fallback display name for unlabeled resources (the behaviour
// shown in the paper's Figure 7, where raw identifiers appear when no
// rdfs:label is present).
func (i IRI) LocalName() string {
	s := string(i)
	if j := strings.LastIndexByte(s, '#'); j >= 0 && j+1 < len(s) {
		return s[j+1:]
	}
	if j := strings.LastIndexByte(s, '/'); j >= 0 && j+1 < len(s) {
		return s[j+1:]
	}
	return s
}

// Blank is a blank node with a graph-scoped label.
type Blank string

// Kind implements Term.
func (Blank) Kind() Kind { return KindBlank }

// Key implements Term.
func (b Blank) Key() string { return "_:" + string(b) }

// String returns the N-Triples form, e.g. _:b12.
func (b Blank) String() string { return "_:" + string(b) }

// Well-known XSD datatype IRIs for typed literals.
const (
	XSDString   = IRI("http://www.w3.org/2001/XMLSchema#string")
	XSDInteger  = IRI("http://www.w3.org/2001/XMLSchema#integer")
	XSDDecimal  = IRI("http://www.w3.org/2001/XMLSchema#decimal")
	XSDDouble   = IRI("http://www.w3.org/2001/XMLSchema#double")
	XSDBoolean  = IRI("http://www.w3.org/2001/XMLSchema#boolean")
	XSDDateTime = IRI("http://www.w3.org/2001/XMLSchema#dateTime")
	XSDDate     = IRI("http://www.w3.org/2001/XMLSchema#date")
)

// Literal is a typed RDF literal. The zero value is the empty plain string.
type Literal struct {
	// Lexical is the lexical (surface) form of the value.
	Lexical string
	// Datatype is the literal's datatype IRI; empty means plain string.
	Datatype IRI
	// Lang is an optional language tag (only meaningful for plain strings).
	Lang string
}

// NewString returns a plain string literal.
func NewString(s string) Literal { return Literal{Lexical: s} }

// NewInteger returns an xsd:integer literal.
func NewInteger(v int64) Literal {
	return Literal{Lexical: strconv.FormatInt(v, 10), Datatype: XSDInteger}
}

// NewBool returns an xsd:boolean literal.
func NewBool(v bool) Literal {
	return Literal{Lexical: strconv.FormatBool(v), Datatype: XSDBoolean}
}

// TimeLayout is the lexical layout used for xsd:dateTime literals.
const TimeLayout = time.RFC3339

// NewTime returns an xsd:dateTime literal in RFC 3339 form (UTC).
func NewTime(t time.Time) Literal {
	return Literal{Lexical: t.UTC().Format(TimeLayout), Datatype: XSDDateTime}
}

// Kind implements Term.
func (Literal) Kind() Kind { return KindLiteral }

// Key implements Term. The key embeds datatype and language so that
// "1"^^xsd:integer and the plain string "1" remain distinct.
func (l Literal) Key() string {
	return "\"" + l.Lexical + "\"@" + l.Lang + "^" + string(l.Datatype)
}

// String returns the N-Triples surface form of the literal.
func (l Literal) String() string {
	var b strings.Builder
	b.WriteByte('"')
	b.WriteString(escapeLiteral(l.Lexical))
	b.WriteByte('"')
	if l.Lang != "" {
		b.WriteByte('@')
		b.WriteString(l.Lang)
	} else if l.Datatype != "" {
		b.WriteString("^^")
		b.WriteString(l.Datatype.String())
	}
	return b.String()
}

// IsTemporal reports whether the literal has a date or dateTime datatype.
func (l Literal) IsTemporal() bool {
	return l.Datatype == XSDDateTime || l.Datatype == XSDDate
}

// Int returns the literal parsed as an integer.
func (l Literal) Int() (int64, bool) {
	v, err := strconv.ParseInt(l.Lexical, 10, 64)
	return v, err == nil
}

// Float returns the literal parsed as a float. Integer, decimal, double and
// date/dateTime literals (as Unix seconds) all yield floats, which is how the
// query engine and the vector space model obtain a single numeric axis for
// continuous-valued attributes (paper §5.4).
func (l Literal) Float() (float64, bool) {
	if l.IsTemporal() {
		t, ok := l.Time()
		if !ok {
			return 0, false
		}
		return float64(t.Unix()), true
	}
	v, err := strconv.ParseFloat(l.Lexical, 64)
	return v, err == nil
}

// Bool returns the literal parsed as a boolean.
func (l Literal) Bool() (bool, bool) {
	v, err := strconv.ParseBool(l.Lexical)
	return v, err == nil
}

// Time returns the literal parsed as a time. Both xsd:dateTime (RFC 3339)
// and xsd:date (YYYY-MM-DD) lexical forms are accepted.
func (l Literal) Time() (time.Time, bool) {
	if t, err := time.Parse(TimeLayout, l.Lexical); err == nil {
		return t, true
	}
	if t, err := time.Parse("2006-01-02", l.Lexical); err == nil {
		return t, true
	}
	return time.Time{}, false
}

// ParseTermKey inverts Term.Key: it reconstructs the term a canonical key
// denotes, reporting false for strings that are not term keys. Keys are
// stable identifiers, so they can travel through UIs (URLs, suggestion
// keys) and come back as terms.
func ParseTermKey(k string) (Term, bool) {
	switch {
	case strings.HasPrefix(k, "<"):
		return IRI(k[1:]), true
	case strings.HasPrefix(k, "_:"):
		return Blank(k[2:]), true
	case strings.HasPrefix(k, "\""):
		// "lex"@lang^datatype — scan from the end: the final '^' introduces
		// the datatype (datatype IRIs never contain '^'), and the '@' just
		// before that segment closes the language tag.
		caret := strings.LastIndexByte(k, '^')
		if caret < 0 {
			return nil, false
		}
		dt := IRI(k[caret+1:])
		rest := k[1:caret] // lex"@lang
		at := strings.LastIndexByte(rest, '@')
		if at < 1 || rest[at-1] != '"' {
			return nil, false
		}
		return Literal{
			Lexical:  rest[:at-1],
			Lang:     rest[at+1:],
			Datatype: dt,
		}, true
	default:
		return nil, false
	}
}

func escapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
