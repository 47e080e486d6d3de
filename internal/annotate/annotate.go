// Package annotate implements the paper's stated future work (§7): "When
// dealing with datasets, it was found that a number of simple annotations
// are often needed such as indicating attribute value types or attribute
// compositions. Heuristic rules or learning approaches to determine such
// annotations will be helpful."
//
// Advisor inspects an unannotated (or partially annotated) graph and
// proposes the schema annotations a schema expert would add: value types
// for stringly-numeric columns (the Figure 7 → Figure 8 upgrade), display
// labels, composition annotations for informative resource-valued
// properties, facet preferences for high-coverage shared-value axes, and
// hidden flags for machine-opaque attributes (the §6.1 OCW/ArtSTOR
// catalog-key problem). Proposals carry confidences and evidence strings;
// Apply writes accepted proposals into a graph builder as ordinary annotation
// triples.
package annotate

import (
	"fmt"
	"sort"
	"strings"

	"magnet/internal/rdf"
	"magnet/internal/schema"
)

// Kind classifies a proposal.
type Kind int

const (
	// ValueType proposes a magnet:valueType annotation.
	ValueType Kind = iota
	// Label proposes a magnet:label annotation.
	Label
	// Compose proposes a magnet:compose annotation.
	Compose
	// Facet proposes a magnet:facet annotation.
	Facet
	// Hide proposes a magnet:hidden annotation.
	Hide
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case ValueType:
		return "value-type"
	case Label:
		return "label"
	case Compose:
		return "compose"
	case Facet:
		return "facet"
	case Hide:
		return "hide"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Proposal is one suggested annotation.
type Proposal struct {
	Kind Kind
	Prop rdf.IRI
	// ValueType is set for ValueType proposals.
	ValueType schema.ValueType
	// Label is set for Label proposals.
	Label string
	// Confidence in (0, 1]; proposals are sorted by it.
	Confidence float64
	// Evidence is a human-readable justification.
	Evidence string
}

// Config tunes the heuristics.
type Config struct {
	// Sample bounds how many values per property are inspected (0 = 256).
	Sample int
	// MinNumericShare is the fraction of sampled literals that must parse
	// numerically to propose a numeric value type (0 = 0.95).
	MinNumericShare float64
	// MinOpaqueShare is the fraction of values that must look
	// machine-opaque to propose hiding (0 = 0.8).
	MinOpaqueShare float64
}

func (c Config) sample() int {
	if c.Sample <= 0 {
		return 256
	}
	return c.Sample
}

func (c Config) minNumeric() float64 {
	if c.MinNumericShare <= 0 {
		return 0.95
	}
	return c.MinNumericShare
}

func (c Config) minOpaque() float64 {
	if c.MinOpaqueShare <= 0 {
		return 0.8
	}
	return c.MinOpaqueShare
}

// Advise inspects the graph and returns proposals, highest confidence
// first (ties: by kind then property, for determinism). Properties that
// already carry the relevant annotation are skipped.
func Advise(g *rdf.Graph, cfg Config) []Proposal {
	sch := schema.NewStore(g)
	var out []Proposal
	for _, p := range g.Predicates() {
		if sch.Hidden(p) {
			continue
		}
		stats := gather(g, p, cfg.sample())
		out = append(out, adviseValueType(sch, p, stats, cfg)...)
		out = append(out, adviseLabel(sch, p)...)
		out = append(out, adviseCompose(g, sch, p, stats)...)
		out = append(out, adviseFacet(g, sch, p, stats)...)
		out = append(out, adviseHide(sch, p, stats, cfg)...)
	}
	// A property proposed hidden gets no other proposals — hiding wins.
	hidden := make(map[rdf.IRI]bool)
	for _, pr := range out {
		if pr.Kind == Hide {
			hidden[pr.Prop] = true
		}
	}
	filtered := out[:0]
	for _, pr := range out {
		if pr.Kind == Hide || !hidden[pr.Prop] {
			filtered = append(filtered, pr)
		}
	}
	out = filtered

	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Prop < out[j].Prop
	})
	return out
}

// Apply writes the proposals into the graph builder as annotation triples.
func Apply(b *rdf.Builder, proposals []Proposal) {
	for _, pr := range proposals {
		switch pr.Kind {
		case ValueType:
			schema.SetValueType(b, pr.Prop, pr.ValueType)
		case Label:
			schema.SetLabel(b, pr.Prop, pr.Label)
		case Compose:
			schema.SetCompose(b, pr.Prop)
		case Facet:
			schema.SetFacet(b, pr.Prop)
		case Hide:
			schema.SetHidden(b, pr.Prop)
		}
	}
}

// propStats summarizes a property's sampled values.
type propStats struct {
	values     int // distinct values sampled
	subjects   int // subjects carrying the property
	iris       int
	literals   int
	intParse   int // literals parsing as integers
	floatParse int // literals parsing as floats (incl. ints)
	dateParse  int
	opaque     int // literals that look machine-generated
	shared     int // values carried by ≥ 2 subjects
	avgLen     float64
}

func gather(g *rdf.Graph, p rdf.IRI, sample int) propStats {
	var st propStats
	st.subjects = len(g.SubjectsWithProperty(p))
	var totalLen int
	for i, v := range g.ObjectsOf(p) {
		if i >= sample {
			break
		}
		st.values++
		if g.SubjectCount(p, v) >= 2 {
			st.shared++
		}
		switch t := v.(type) {
		case rdf.IRI:
			st.iris++
		case rdf.Literal:
			st.literals++
			totalLen += len(t.Lexical)
			if _, ok := t.Int(); ok {
				st.intParse++
			}
			if t.IsTemporal() {
				st.dateParse++
			} else if _, ok := t.Float(); ok {
				st.floatParse++
			}
			if looksOpaque(t.Lexical) {
				st.opaque++
			}
		}
	}
	if st.literals > 0 {
		st.avgLen = float64(totalLen) / float64(st.literals)
	}
	return st
}

// looksOpaque reports whether a value looks machine-generated rather than
// human-readable: hex-ish runs, no vowels, digit/letter mixes with
// separators, very low vowel density.
func looksOpaque(s string) bool {
	if s == "" {
		return false
	}
	letters, vowels, digits, others := 0, 0, 0, 0
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z':
			letters++
			switch r | 0x20 {
			case 'a', 'e', 'i', 'o', 'u':
				vowels++
			}
		case r >= '0' && r <= '9':
			digits++
		case r == ' ':
			// spaces read as human text
			return false
		default:
			others++
		}
	}
	if letters == 0 && digits > 0 {
		return false // plain numbers are numeric, not opaque
	}
	if letters > 0 && digits > 0 && others > 0 {
		return true // mixed codes like 0xA010-3
	}
	if letters >= 4 && float64(vowels)/float64(letters) < 0.15 {
		return true // unpronounceable
	}
	return false
}

func adviseValueType(sch *schema.Store, p rdf.IRI, st propStats, cfg Config) []Proposal {
	if sch.AnnotatedValueType(p) != schema.Unknown || st.literals == 0 || st.iris > 0 {
		return nil
	}
	lit := float64(st.literals)
	switch {
	case float64(st.dateParse)/lit >= cfg.minNumeric():
		return []Proposal{{
			Kind: ValueType, Prop: p, ValueType: schema.Date,
			Confidence: float64(st.dateParse) / lit,
			Evidence:   fmt.Sprintf("%d/%d sampled values parse as dates", st.dateParse, st.literals),
		}}
	case float64(st.intParse)/lit >= cfg.minNumeric():
		return []Proposal{{
			Kind: ValueType, Prop: p, ValueType: schema.Integer,
			Confidence: float64(st.intParse) / lit,
			Evidence:   fmt.Sprintf("%d/%d sampled values parse as integers", st.intParse, st.literals),
		}}
	case float64(st.floatParse)/lit >= cfg.minNumeric():
		return []Proposal{{
			Kind: ValueType, Prop: p, ValueType: schema.Float,
			Confidence: float64(st.floatParse) / lit,
			Evidence:   fmt.Sprintf("%d/%d sampled values parse as numbers", st.floatParse, st.literals),
		}}
	}
	return nil
}

func adviseLabel(sch *schema.Store, p rdf.IRI) []Proposal {
	if sch.HasLabel(p) {
		return nil
	}
	label := rdf.PlainName(p)
	// Imported properties often carry path prefixes (csv columns arrive as
	// prop/<header>); label from the final segment only.
	if i := strings.LastIndexByte(label, '/'); i >= 0 && i+1 < len(label) {
		label = label[i+1:]
	}
	if label == "" || label == string(p) {
		return nil // nothing humanizable
	}
	return []Proposal{{
		Kind: Label, Prop: p, Label: label,
		Confidence: 0.5,
		Evidence:   "humanized from the property identifier",
	}}
}

func adviseCompose(g *rdf.Graph, sch *schema.Store, p rdf.IRI, st propStats) []Proposal {
	if sch.Composable(p) || st.values == 0 || st.iris < st.values {
		return nil // only all-resource properties compose
	}
	// Informative targets: sample a few object values and check they carry
	// non-hidden properties beyond rdf:type.
	objs := g.ObjectsOf(p)
	inspected, informative := 0, 0
	for _, o := range objs {
		if inspected >= 8 {
			break
		}
		iri, ok := o.(rdf.IRI)
		if !ok {
			continue
		}
		inspected++
		for _, q := range g.PredicatesOf(iri) {
			if q != rdf.Type && !sch.Hidden(q) && q != rdf.Label {
				informative++
				break
			}
		}
	}
	if inspected == 0 || float64(informative)/float64(inspected) < 0.5 {
		return nil
	}
	return []Proposal{{
		Kind: Compose, Prop: p,
		Confidence: float64(informative) / float64(inspected) * 0.8,
		Evidence: fmt.Sprintf("%d/%d sampled values are resources with further attributes",
			informative, inspected),
	}}
}

func adviseFacet(g *rdf.Graph, sch *schema.Store, p rdf.IRI, st propStats) []Proposal {
	if sch.IsFacet(p) || p == rdf.Type || st.values < 2 || st.subjects < 4 {
		return nil
	}
	// Good facet: values shared across subjects, value domain much smaller
	// than the subject count.
	shareRatio := float64(st.shared) / float64(st.values)
	domainRatio := float64(st.values) / float64(st.subjects)
	if shareRatio < 0.5 || domainRatio > 0.5 {
		return nil
	}
	return []Proposal{{
		Kind: Facet, Prop: p,
		Confidence: shareRatio * (1 - domainRatio),
		Evidence: fmt.Sprintf("%d values across %d subjects, %.0f%% shared",
			st.values, st.subjects, shareRatio*100),
	}}
}

func adviseHide(sch *schema.Store, p rdf.IRI, st propStats, cfg Config) []Proposal {
	if st.literals == 0 {
		return nil
	}
	share := float64(st.opaque) / float64(st.literals)
	if share < cfg.minOpaque() {
		return nil
	}
	return []Proposal{{
		Kind: Hide, Prop: p,
		Confidence: share,
		Evidence: fmt.Sprintf("%d/%d sampled values look machine-generated (%s...)",
			st.opaque, st.literals, clipEvidence(p)),
	}}
}

func clipEvidence(p rdf.IRI) string {
	s := p.LocalName()
	if len(s) > 24 {
		return s[:24]
	}
	return s
}

// Describe renders a proposal for display.
func (pr Proposal) Describe(label func(rdf.IRI) string) string {
	name := label(pr.Prop)
	var what string
	switch pr.Kind {
	case ValueType:
		what = fmt.Sprintf("annotate value type %s", pr.ValueType)
	case Label:
		what = fmt.Sprintf("label as %q", pr.Label)
	case Compose:
		what = "mark composable"
	case Facet:
		what = "prefer as facet"
	case Hide:
		what = "hide from navigation"
	}
	return fmt.Sprintf("%s: %s (%.0f%%, %s)", name, what, pr.Confidence*100,
		strings.TrimSpace(pr.Evidence))
}
