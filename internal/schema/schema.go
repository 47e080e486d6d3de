// Package schema manages Magnet's schema annotations (paper §5.1, §6.1).
// Magnet works without any schema, but "takes advantage of whatever schema
// information is available": property labels, attribute value types (which
// unlock range widgets and unit-circle numeric encoding), attribute
// compositions (which add transitive coordinates to the vector space model),
// and hidden flags (suppressing algorithmically significant but
// non-human-readable attributes, §6.1).
//
// Annotations are ordinary triples stored in the data graph itself, so
// "schema experts or advanced users" can add them incrementally, and they
// travel with the data. The setters write them to a graph builder, before
// the graph is frozen; the Store reads them from the frozen graph.
package schema

import (
	"sync"

	"magnet/internal/itemset"
	"magnet/internal/rdf"
)

// ValueType classifies a property's values for querying and vectorization.
type ValueType int

const (
	// Unknown means no annotation exists and inference was inconclusive.
	Unknown ValueType = iota
	// Resource values are other items (IRIs), keyed by identity.
	Resource
	// Text values are strings split into word coordinates.
	Text
	// Integer values are whole numbers; range queries and unit-circle
	// encoding apply.
	Integer
	// Float values are real numbers; range queries and unit-circle encoding
	// apply.
	Float
	// Date values are temporal; range queries and unit-circle encoding
	// apply after conversion to a numeric axis (paper §5.4).
	Date
	// Boolean values are true/false flags, keyed by identity.
	Boolean
)

// String returns the annotation lexical form of the value type.
func (vt ValueType) String() string {
	switch vt {
	case Resource:
		return "resource"
	case Text:
		return "text"
	case Integer:
		return "integer"
	case Float:
		return "float"
	case Date:
		return "date"
	case Boolean:
		return "boolean"
	default:
		return "unknown"
	}
}

// ParseValueType converts an annotation lexical form back to a ValueType.
func ParseValueType(s string) ValueType {
	switch s {
	case "resource":
		return Resource
	case "text":
		return Text
	case "integer":
		return Integer
	case "float":
		return Float
	case "date", "datetime":
		return Date
	case "boolean":
		return Boolean
	default:
		return Unknown
	}
}

// Numeric reports whether the value type supports numeric range queries and
// unit-circle similarity encoding.
func (vt ValueType) Numeric() bool {
	return vt == Integer || vt == Float || vt == Date
}

// datasetNode is the well-known subject carrying graph-level annotations.
const datasetNode = rdf.IRI(rdf.NSMagnet + "dataset")

// Store reads schema annotations from a frozen graph. Value-type
// inference and numeric spans are memoized, since each scans a property's
// value domain; the graph never changes, so neither memo goes stale.
type Store struct {
	g *rdf.Graph

	mu       sync.Mutex
	inferred map[rdf.IRI]ValueType   // guarded by mu
	spans    map[rdf.IRI]NumericSpan // guarded by mu
}

// NewStore returns an annotation store over g.
func NewStore(g *rdf.Graph) *Store {
	return &Store{
		g:        g,
		inferred: make(map[rdf.IRI]ValueType),
		spans:    make(map[rdf.IRI]NumericSpan),
	}
}

// Graph returns the underlying graph.
func (s *Store) Graph() *rdf.Graph { return s.g }

// SetLabel annotates property p with a display label.
func SetLabel(b *rdf.Builder, p rdf.IRI, label string) {
	b.Add(p, rdf.AnnLabel, rdf.NewString(label))
}

// Label returns the display label for p: magnet:label, then rdfs:label /
// dc:title, then the humanized local name (the graph's Label already
// implements that precedence).
func (s *Store) Label(p rdf.IRI) string { return s.g.Label(p) }

// HasLabel reports whether p carries any explicit label (used to reproduce
// the paper's Figure 7 raw-identifier display for unannotated data).
func (s *Store) HasLabel(p rdf.IRI) bool { return s.g.HasLabel(p) }

// valueTypeForms are every lexical form a value-type annotation takes.
var valueTypeForms = []string{"unknown", "resource", "text", "integer", "float", "date", "datetime", "boolean"}

// SetValueType annotates property p's value type, replacing any earlier
// value-type annotation of p.
func SetValueType(b *rdf.Builder, p rdf.IRI, vt ValueType) {
	for _, form := range valueTypeForms {
		b.Remove(p, rdf.AnnValueType, rdf.NewString(form))
	}
	b.Add(p, rdf.AnnValueType, rdf.NewString(vt.String()))
}

// AnnotatedValueType returns p's annotated value type, or Unknown when no
// annotation exists.
func (s *Store) AnnotatedValueType(p rdf.IRI) ValueType {
	if o, ok := s.g.Object(p, rdf.AnnValueType); ok {
		if l, isLit := o.(rdf.Literal); isLit {
			return ParseValueType(l.Lexical)
		}
	}
	return Unknown
}

// inferSample bounds how many values are inspected when inferring a type.
const inferSample = 64

// ValueType returns p's effective value type: the annotation if present,
// otherwise a type inferred by sampling p's values in the graph. Inference
// is deliberately conservative: numeric and date types are only *inferred*
// when every sampled literal parses; mixed bags fall back to Text, matching
// the paper's observation (§6.1) that unannotated data behaves like strings
// until a schema expert adds a value-type annotation (Figure 7 → Figure 8).
func (s *Store) ValueType(p rdf.IRI) ValueType {
	if vt := s.AnnotatedValueType(p); vt != Unknown {
		return vt
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if vt, ok := s.inferred[p]; ok {
		return vt
	}
	vt := s.inferValueType(p)
	s.inferred[p] = vt
	return vt
}

func (s *Store) inferValueType(p rdf.IRI) ValueType {
	objs := s.g.ObjectsOf(p)
	if len(objs) == 0 {
		return Unknown
	}
	if len(objs) > inferSample {
		objs = objs[:inferSample]
	}
	allIRI := true
	allInt := true
	allFloat := true
	allDate := true
	allBool := true
	sawLiteral := false
	for _, o := range objs {
		switch v := o.(type) {
		case rdf.IRI:
			allInt, allFloat, allDate, allBool = false, false, false, false
		case rdf.Literal:
			sawLiteral = true
			allIRI = false
			// Typed literals are trusted; plain strings are never inferred
			// as numeric (the 50-states CSV keeps areas as strings until
			// annotated, per Figures 7–8).
			switch {
			case v.Datatype == rdf.XSDInteger:
				allFloat, allDate, allBool = false, false, false
			case v.Datatype == rdf.XSDDecimal || v.Datatype == rdf.XSDDouble:
				allInt, allDate, allBool = false, false, false
			case v.IsTemporal():
				allInt, allFloat, allBool = false, false, false
			case v.Datatype == rdf.XSDBoolean:
				allInt, allFloat, allDate = false, false, false
			default:
				allInt, allFloat, allDate, allBool = false, false, false, false
			}
		default:
			return Unknown
		}
	}
	switch {
	case allIRI:
		return Resource
	case !sawLiteral:
		return Unknown
	case allInt:
		return Integer
	case allFloat:
		return Float
	case allDate:
		return Date
	case allBool:
		return Boolean
	default:
		return Text
	}
}

// SetCompose marks property p as worth composing with a second level of
// attributes in the vector space model (paper §5.1; §6.1's "body is an
// important property to compose").
func SetCompose(b *rdf.Builder, p rdf.IRI) {
	b.Add(p, rdf.AnnCompose, rdf.NewBool(true))
}

// Composable reports whether p carries the composition annotation.
func (s *Store) Composable(p rdf.IRI) bool {
	o, ok := s.g.Object(p, rdf.AnnCompose)
	if !ok {
		return false
	}
	l, isLit := o.(rdf.Literal)
	if !isLit {
		return false
	}
	b, _ := l.Bool()
	return b
}

// ComposableProperties returns every property annotated composable, sorted.
func (s *Store) ComposableProperties() []rdf.IRI {
	subs := s.g.Subjects(rdf.AnnCompose, rdf.NewBool(true))
	return subs
}

// SetHidden suppresses p from navigation suggestions (paper §6.1: "Magnet
// does provide custom annotations to hide such attributes").
func SetHidden(b *rdf.Builder, p rdf.IRI) {
	b.Add(p, rdf.AnnHidden, rdf.NewBool(true))
}

// Hidden reports whether p is suppressed from navigation suggestions.
// Magnet's own annotation vocabulary and rdfs:label are always hidden —
// they are metadata about metadata, never navigation axes.
func (s *Store) Hidden(p rdf.IRI) bool {
	switch p {
	case rdf.AnnLabel, rdf.AnnValueType, rdf.AnnCompose, rdf.AnnHidden,
		rdf.AnnFacet, rdf.AnnTreeShaped, rdf.Label, rdf.Comment:
		return true
	}
	o, ok := s.g.Object(p, rdf.AnnHidden)
	if !ok {
		return false
	}
	l, isLit := o.(rdf.Literal)
	if !isLit {
		return false
	}
	b, _ := l.Bool()
	return b
}

// SetFacet marks p as a preferred faceting axis, giving it priority in the
// large-collection overview (Figure 2).
func SetFacet(b *rdf.Builder, p rdf.IRI) {
	b.Add(p, rdf.AnnFacet, rdf.NewBool(true))
}

// IsFacet reports whether p carries the facet-preference annotation.
func (s *Store) IsFacet(p rdf.IRI) bool {
	o, ok := s.g.Object(p, rdf.AnnFacet)
	if !ok {
		return false
	}
	l, isLit := o.(rdf.Literal)
	if !isLit {
		return false
	}
	b, _ := l.Bool()
	return b
}

// SetTreeShaped records that the dataset is a finite tree (e.g. an XML
// import), licensing deeper composition chains (paper §6.2: "Telling Magnet
// that the information is structured as a tree ... would have provided a
// cleaner interface").
func SetTreeShaped(b *rdf.Builder) {
	b.Add(datasetNode, rdf.AnnTreeShaped, rdf.NewBool(true))
}

// TreeShaped reports whether the dataset carries the tree-shape annotation.
func (s *Store) TreeShaped() bool {
	o, ok := s.g.Object(datasetNode, rdf.AnnTreeShaped)
	if !ok {
		return false
	}
	l, isLit := o.(rdf.Literal)
	if !isLit {
		return false
	}
	b, _ := l.Bool()
	return b
}

// NumericSpan summarizes a property's numeric value domain for cost
// estimation: the [Min, Max] span of parseable numeric literal values and
// the total posting mass (summed posting-list length over those values —
// the number of item/value pairs a range over the whole span would
// touch). The zero span (Postings == 0) means the property has no numeric
// values.
type NumericSpan struct {
	Min, Max float64
	Postings int
}

// NumericSpan returns p's numeric-domain summary, computed by one
// value-domain walk and memoized like value type inference (the walk is
// O(distinct values), too costly to repeat per query-planning step).
func (s *Store) NumericSpan(p rdf.IRI) NumericSpan {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sp, ok := s.spans[p]; ok {
		return sp
	}
	sp := s.computeSpanLocked(p)
	s.spans[p] = sp
	return sp
}

func (s *Store) computeSpanLocked(p rdf.IRI) NumericSpan {
	var sp NumericSpan
	first := true
	s.g.ForEachValuePosting(p, func(o rdf.Term, subjects itemset.Set) bool {
		lit, ok := o.(rdf.Literal)
		if !ok {
			return true
		}
		f, ok := lit.Float()
		if !ok {
			return true
		}
		if first {
			sp.Min, sp.Max = f, f
			first = false
		} else {
			if f < sp.Min {
				sp.Min = f
			}
			if f > sp.Max {
				sp.Max = f
			}
		}
		sp.Postings += subjects.Len()
		return true
	})
	return sp
}

// NumericProperties returns every property whose effective value type is
// numeric, sorted. These drive range widgets (Figure 5) and unit-circle
// encoding.
func (s *Store) NumericProperties() []rdf.IRI {
	var out []rdf.IRI
	for _, p := range s.g.Predicates() {
		if s.Hidden(p) {
			continue
		}
		if s.ValueType(p).Numeric() {
			out = append(out, p)
		}
	}
	return out
}

// NavigationProperties returns every property usable as a navigation axis:
// present in the graph, not hidden, not annotation vocabulary, sorted.
func (s *Store) NavigationProperties() []rdf.IRI {
	var out []rdf.IRI
	for _, p := range s.g.Predicates() {
		if s.Hidden(p) {
			continue
		}
		out = append(out, p)
	}
	return out
}
