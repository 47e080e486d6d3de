package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseError describes a malformed line encountered while reading N-Triples.
type ParseError struct {
	Line int    // 1-based line number
	Text string // offending line
	Msg  string // what went wrong
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d: %s: %q", e.Line, e.Msg, e.Text)
}

// ReadNTriples parses N-Triples from r into a new builder. Blank-node
// subjects and objects are skolemized into IRIs under the magnet namespace
// so the rest of the system only deals with IRI-identified items. Comment
// lines (#...) and blank lines are skipped.
func ReadNTriples(r io.Reader) (*Builder, error) {
	b := NewBuilder()
	if err := ReadNTriplesInto(b, r); err != nil {
		return nil, err
	}
	return b, nil
}

// ReadNTriplesInto parses N-Triples from r into an existing builder.
func ReadNTriplesInto(b *Builder, r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		st, err := parseTripleLine(line, lineNo)
		if err != nil {
			return err
		}
		b.Add(st.Subject, st.Predicate, st.Object)
	}
	return sc.Err()
}

func parseTripleLine(line string, lineNo int) (Statement, error) {
	p := &lineParser{s: line, line: lineNo}
	subj, err := p.term()
	if err != nil {
		return Statement{}, err
	}
	subjIRI, ok := asSubject(subj)
	if !ok {
		return Statement{}, p.errorf("subject must be an IRI or blank node")
	}
	pred, err := p.term()
	if err != nil {
		return Statement{}, err
	}
	predIRI, ok := pred.(IRI)
	if !ok {
		return Statement{}, p.errorf("predicate must be an IRI")
	}
	obj, err := p.term()
	if err != nil {
		return Statement{}, err
	}
	if b, isBlank := obj.(Blank); isBlank {
		obj = skolemize(b)
	}
	p.skipSpace()
	if !p.eat('.') {
		return Statement{}, p.errorf("expected terminating '.'")
	}
	return Statement{subjIRI, predIRI, obj}, nil
}

func asSubject(t Term) (IRI, bool) {
	switch v := t.(type) {
	case IRI:
		return v, true
	case Blank:
		return skolemize(v), true
	default:
		return "", false
	}
}

func skolemize(b Blank) IRI {
	return IRI(NSMagnet + "genid/" + string(b))
}

type lineParser struct {
	s    string
	pos  int
	line int
}

func (p *lineParser) errorf(format string, args ...any) error {
	return &ParseError{Line: p.line, Text: p.s, Msg: fmt.Sprintf(format, args...)}
}

func (p *lineParser) skipSpace() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

func (p *lineParser) eat(c byte) bool {
	if p.pos < len(p.s) && p.s[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *lineParser) term() (Term, error) {
	p.skipSpace()
	if p.pos >= len(p.s) {
		return nil, p.errorf("unexpected end of line")
	}
	switch p.s[p.pos] {
	case '<':
		return p.iri()
	case '_':
		return p.blank()
	case '"':
		return p.literal()
	default:
		return nil, p.errorf("unexpected character %q", p.s[p.pos])
	}
}

func (p *lineParser) iri() (Term, error) {
	end := strings.IndexByte(p.s[p.pos:], '>')
	if end < 0 {
		return nil, p.errorf("unterminated IRI")
	}
	iri := IRI(p.s[p.pos+1 : p.pos+end])
	if iri == "" {
		return nil, p.errorf("empty IRI")
	}
	// '^' is outside the N-Triples IRIREF alphabet; a datatype IRI holding
	// one would make its literal's term key ambiguous (see ParseTermKey).
	if strings.IndexByte(string(iri), '^') >= 0 {
		return nil, p.errorf("'^' in IRI")
	}
	p.pos += end + 1
	return iri, nil
}

// validLangTag reports whether s is an N-Triples LANGTAG body:
// [a-zA-Z]+ ('-' [a-zA-Z0-9]+)*.
func validLangTag(s string) bool {
	for i, part := range strings.Split(s, "-") {
		if part == "" {
			return false
		}
		for _, c := range part {
			letter := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
			if !letter && (i == 0 || c < '0' || c > '9') {
				return false
			}
		}
	}
	return true
}

func (p *lineParser) blank() (Term, error) {
	if !strings.HasPrefix(p.s[p.pos:], "_:") {
		return nil, p.errorf("malformed blank node")
	}
	start := p.pos + 2
	end := start
	for end < len(p.s) && isBlankLabelChar(p.s[end]) {
		end++
	}
	if end == start {
		return nil, p.errorf("empty blank node label")
	}
	b := Blank(p.s[start:end])
	p.pos = end
	return b, nil
}

// isBlankLabelChar restricts blank-node labels to a safe subset of the
// N-Triples BLANK_NODE_LABEL grammar, so skolemized IRIs always serialize
// cleanly.
func isBlankLabelChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '_' || c == '-'
}

func (p *lineParser) literal() (Term, error) {
	p.pos++ // opening quote
	var b strings.Builder
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if c == '\\' {
			if p.pos+1 >= len(p.s) {
				return nil, p.errorf("dangling escape")
			}
			esc := p.s[p.pos+1]
			switch esc {
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case '"', '\\':
				b.WriteByte(esc)
			case 'u', 'U':
				r, n, err := decodeUnicodeEscape(p.s[p.pos:])
				if err != nil {
					return nil, p.errorf("%v", err)
				}
				b.WriteRune(r)
				p.pos += n - 2
			default:
				return nil, p.errorf("unknown escape \\%c", esc)
			}
			p.pos += 2
			continue
		}
		if c == '"' {
			p.pos++
			lit := Literal{Lexical: b.String()}
			// Optional @lang or ^^<datatype>.
			if p.pos < len(p.s) && p.s[p.pos] == '@' {
				start := p.pos + 1
				end := start
				for end < len(p.s) && p.s[end] != ' ' && p.s[end] != '\t' {
					end++
				}
				lit.Lang = p.s[start:end]
				if !validLangTag(lit.Lang) {
					return nil, p.errorf("malformed language tag")
				}
				p.pos = end
			} else if strings.HasPrefix(p.s[p.pos:], "^^<") {
				p.pos += 2
				t, err := p.iri()
				if err != nil {
					return nil, err
				}
				lit.Datatype = t.(IRI)
			}
			return lit, nil
		}
		b.WriteByte(c)
		p.pos++
	}
	return nil, p.errorf("unterminated literal")
}

func decodeUnicodeEscape(s string) (rune, int, error) {
	// s begins with \u or \U.
	var width int
	switch s[1] {
	case 'u':
		width = 4
	case 'U':
		width = 8
	}
	if len(s) < 2+width {
		return 0, 0, fmt.Errorf("truncated unicode escape")
	}
	var r rune
	for i := 2; i < 2+width; i++ {
		c := s[i]
		var v rune
		switch {
		case c >= '0' && c <= '9':
			v = rune(c - '0')
		case c >= 'a' && c <= 'f':
			v = rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v = rune(c-'A') + 10
		default:
			return 0, 0, fmt.Errorf("invalid hex digit %q in unicode escape", c)
		}
		r = r<<4 | v
	}
	return r, 2 + width, nil
}

// WriteNTriples serializes the graph to w in canonical (sorted) N-Triples.
func WriteNTriples(g *Graph, w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, st := range g.AllStatements() {
		if _, err := bw.WriteString(st.String()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
