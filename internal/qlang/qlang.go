// Package qlang parses a small textual query language into Magnet query
// predicates, resolving human-readable property and value names against the
// graph's labels. It gives the CLI and power users the §3.3 "complex query"
// capability in one line:
//
//	cuisine = Greek AND NOT ingredient.group = Nuts AND servings >= 4
//	title : "butter" OR directions : walnut
//	"winter soup"
//
// Grammar (case-insensitive keywords):
//
//	expr    = or
//	or      = and { "OR" and }
//	and     = unary { "AND" unary }
//	unary   = "NOT" unary | "(" expr ")" | atom
//	atom    = path op value | string       (a bare string is keyword search)
//	path    = name { "." name }            (property composition)
//	op      = "=" | "!=" | ":" | ">" | ">=" | "<" | "<="
//
// "=" matches an attribute value by label (resources) or text (literals);
// ":" is a contains-word text match on the property; comparisons build
// numeric ranges.
package qlang

import (
	"fmt"
	"strings"

	"magnet/internal/query"
	"magnet/internal/rdf"
	"magnet/internal/schema"
)

// Resolver maps names in queries to graph terms.
type Resolver struct {
	g   *rdf.Graph
	sch *schema.Store

	propIndex map[string]rdf.IRI
}

// NewResolver builds a resolver over the graph's current properties: each
// navigation property is addressable by its label, its humanized name, and
// its local name (all case-insensitive, spaces and underscores equivalent).
func NewResolver(g *rdf.Graph, sch *schema.Store) *Resolver {
	r := &Resolver{g: g, sch: sch, propIndex: make(map[string]rdf.IRI)}
	for _, p := range g.Predicates() {
		if sch.Hidden(p) {
			continue
		}
		for _, name := range []string{sch.Label(p), rdf.PlainName(p), p.LocalName()} {
			key := canon(name)
			if key == "" {
				continue
			}
			if _, taken := r.propIndex[key]; !taken {
				r.propIndex[key] = p
			}
		}
	}
	// rdf:type is always addressable as "type".
	r.propIndex[canon("type")] = rdf.Type
	return r
}

func canon(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	s = strings.ReplaceAll(s, "_", " ")
	s = strings.ReplaceAll(s, "/", " ")
	return strings.Join(strings.Fields(s), " ")
}

// Property resolves a property name.
func (r *Resolver) Property(name string) (rdf.IRI, error) {
	if p, ok := r.propIndex[canon(name)]; ok {
		return p, nil
	}
	return "", fmt.Errorf("qlang: unknown property %q", name)
}

// Value resolves a value name for a property: a resource whose label (or
// local name) matches, or a literal with that lexical form — whichever the
// property's data actually contains.
func (r *Resolver) Value(prop rdf.IRI, name string) (rdf.Term, error) {
	want := canon(name)
	var literal rdf.Term
	for _, v := range r.g.ObjectsOf(prop) {
		switch t := v.(type) {
		case rdf.IRI:
			if canon(r.g.Label(t)) == want || canon(t.LocalName()) == want {
				return t, nil
			}
		case rdf.Literal:
			if canon(t.Lexical) == want {
				literal = t
			}
		}
	}
	if literal != nil {
		return literal, nil
	}
	return nil, fmt.Errorf("qlang: property %q has no value %q", r.g.Label(prop), name)
}

// Parse parses src into a query. AND binds tighter than OR (SQL
// precedence); a top-level conjunction is flattened into separate query
// constraints so the navigation pane shows them as individually removable
// and negatable chips.
func Parse(src string, r *Resolver) (query.Query, error) {
	toks, err := lex(src)
	if err != nil {
		return query.Query{}, err
	}
	p := &parser{toks: toks, r: r}
	pred, err := p.orExpr()
	if err != nil {
		return query.Query{}, err
	}
	if !p.eof() {
		return query.Query{}, fmt.Errorf("qlang: unexpected %q", p.peek().text)
	}
	if and, ok := pred.(query.And); ok {
		return query.NewQuery(and.Ps...), nil
	}
	return query.NewQuery(pred), nil
}

// ---------------------------------------------------------------- lexer --

type tokKind int

const (
	tokEOF tokKind = iota
	tokWord
	tokString
	tokOp // = != : > >= < <=
	tokLParen
	tokRParen
	tokDot
)

type token struct {
	kind tokKind
	text string
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "("})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")"})
			i++
		case c == '.':
			toks = append(toks, token{tokDot, "."})
			i++
		case c == '=' || c == ':':
			toks = append(toks, token{tokOp, string(c)})
			i++
		case c == '!' || c == '>' || c == '<':
			op := string(c)
			if i+1 < len(src) && src[i+1] == '=' {
				op += "="
				i++
			}
			if op == "!" {
				return nil, fmt.Errorf("qlang: stray '!' (use != or NOT)")
			}
			toks = append(toks, token{tokOp, op})
			i++
		case c == '"':
			j := i + 1
			var b strings.Builder
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' && j+1 < len(src) {
					j++
				}
				b.WriteByte(src[j])
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("qlang: unterminated string")
			}
			toks = append(toks, token{tokString, b.String()})
			i = j + 1
		default:
			j := i
			for j < len(src) && !strings.ContainsRune(" \t\n()=:<>!.\"", rune(src[j])) {
				j++
			}
			if j == i {
				return nil, fmt.Errorf("qlang: unexpected character %q", c)
			}
			toks = append(toks, token{tokWord, src[i:j]})
			i = j
		}
	}
	toks = append(toks, token{tokEOF, ""})
	return toks, nil
}

// --------------------------------------------------------------- parser --

type parser struct {
	toks []token
	pos  int
	r    *Resolver
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) eof() bool { return p.peek().kind == tokEOF }

func isKeyword(t token, kw string) bool {
	return t.kind == tokWord && strings.EqualFold(t.text, kw)
}

func (p *parser) orExpr() (query.Predicate, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	var alts []query.Predicate
	for isKeyword(p.peek(), "OR") {
		p.next()
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		alts = append(alts, right)
	}
	if alts == nil {
		return left, nil
	}
	return query.Or{Ps: append([]query.Predicate{left}, alts...)}, nil
}

func (p *parser) andExpr() (query.Predicate, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	var more []query.Predicate
	for isKeyword(p.peek(), "AND") {
		p.next()
		right, err := p.unary()
		if err != nil {
			return nil, err
		}
		more = append(more, right)
	}
	if more == nil {
		return left, nil
	}
	return query.And{Ps: append([]query.Predicate{left}, more...)}, nil
}

func (p *parser) unary() (query.Predicate, error) {
	if isKeyword(p.peek(), "NOT") {
		p.next()
		inner, err := p.unary()
		if err != nil {
			return nil, err
		}
		return query.Not{P: inner}, nil
	}
	if p.peek().kind == tokLParen {
		p.next()
		inner, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if p.peek().kind != tokRParen {
			return nil, fmt.Errorf("qlang: missing ')'")
		}
		p.next()
		return inner, nil
	}
	return p.atom()
}

func (p *parser) atom() (query.Predicate, error) {
	t := p.next()
	switch t.kind {
	case tokString:
		// Bare string: keyword search over all fields.
		return query.Keyword{Text: t.text}, nil
	case tokWord:
		return p.propertyAtom(t.text)
	default:
		return nil, fmt.Errorf("qlang: expected a constraint, got %q", t.text)
	}
}

func (p *parser) propertyAtom(first string) (query.Predicate, error) {
	// path = name { "." name }
	names := []string{first}
	for p.peek().kind == tokDot {
		p.next()
		n := p.next()
		if n.kind != tokWord {
			return nil, fmt.Errorf("qlang: expected property name after '.'")
		}
		names = append(names, n.text)
	}
	op := p.next()
	if op.kind != tokOp {
		// A lone word is a keyword search too ("walnut").
		if op.kind == tokEOF || op.kind == tokRParen || op.kind == tokWord {
			if op.kind != tokEOF {
				p.pos--
			}
			if len(names) == 1 {
				return query.Keyword{Text: names[0]}, nil
			}
		}
		return nil, fmt.Errorf("qlang: expected an operator after %q", strings.Join(names, "."))
	}

	path := make([]rdf.IRI, len(names))
	for i, n := range names {
		prop, err := p.r.Property(n)
		if err != nil {
			return nil, err
		}
		path[i] = prop
	}
	leaf := path[len(path)-1]

	val := p.next()
	if val.kind != tokWord && val.kind != tokString {
		return nil, fmt.Errorf("qlang: expected a value after %q", op.text)
	}

	switch op.text {
	case ":":
		field := string(leaf)
		if len(path) > 1 {
			return nil, fmt.Errorf("qlang: text match ':' does not support composed paths")
		}
		return query.Keyword{Text: val.text, Field: field}, nil
	case "=", "!=":
		term, err := p.r.Value(leaf, val.text)
		if err != nil {
			return nil, err
		}
		var pred query.Predicate
		if len(path) == 1 {
			pred = query.Property{Prop: leaf, Value: term}
		} else {
			pred = query.PathProperty{Path: path, Value: term}
		}
		if op.text == "!=" {
			return query.Not{P: pred}, nil
		}
		return pred, nil
	case ">", ">=", "<", "<=":
		if len(path) > 1 {
			return nil, fmt.Errorf("qlang: range comparisons do not support composed paths")
		}
		f, ok := rdf.Literal{Lexical: val.text, Datatype: rdf.XSDDouble}.Float()
		if !ok {
			return nil, fmt.Errorf("qlang: %q is not a number", val.text)
		}
		// Ranges are inclusive; strict bounds step by the property's grain
		// (1 for integer-valued attributes, an epsilon otherwise).
		step := 1e-9
		if p.r.sch.ValueType(leaf) == schema.Integer {
			step = 1
		}
		switch op.text {
		case ">":
			return query.AtLeast(leaf, f+step), nil
		case ">=":
			return query.AtLeast(leaf, f), nil
		case "<":
			return query.AtMost(leaf, f-step), nil
		default:
			return query.AtMost(leaf, f), nil
		}
	default:
		return nil, fmt.Errorf("qlang: unsupported operator %q", op.text)
	}
}
