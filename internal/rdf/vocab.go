package rdf

// Well-known vocabulary namespaces.
const (
	NSRDF    = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
	NSRDFS   = "http://www.w3.org/2000/01/rdf-schema#"
	NSDC     = "http://purl.org/dc/elements/1.1/"
	NSMagnet = "http://magnet.example.org/ns#"
)

// Core RDF/RDFS terms used throughout the system.
const (
	// Type is rdf:type, the property connecting an item to its class.
	Type = IRI(NSRDF + "type")
	// Label is rdfs:label, the human-readable name of a resource.
	Label = IRI(NSRDFS + "label")
	// Comment is rdfs:comment.
	Comment = IRI(NSRDFS + "comment")
	// DCTitle is dc:title, treated as a title field by the text analysts.
	DCTitle = IRI(NSDC + "title")
)

// Magnet vocabulary: schema annotations the paper describes (§5.1, §6.1)
// plus system bookkeeping. Annotations live in the same graph as the data,
// so "schema experts or advanced users" can add them incrementally.
const (
	// AnnLabel marks a property's display label (in addition to rdfs:label,
	// this lets annotation stores override imported labels).
	AnnLabel = IRI(NSMagnet + "label")
	// AnnValueType annotates a property's value type ("integer", "float",
	// "date", "text", "resource"), enabling range widgets and unit-circle
	// encoding (paper §5.4, Figure 8).
	AnnValueType = IRI(NSMagnet + "valueType")
	// AnnCompose marks a property as worth composing with a second level of
	// attributes in the vector space model (paper §5.1: "the author's field
	// of expertise"; §6.1: "body is an important property to compose").
	AnnCompose = IRI(NSMagnet + "compose")
	// AnnHidden marks a property that should not be shown as a navigation
	// suggestion even if algorithmically significant (paper §6.1, the
	// OCW/ArtSTOR non-human-readable attributes).
	AnnHidden = IRI(NSMagnet + "hidden")
	// AnnFacet marks a property as a preferred faceting axis.
	AnnFacet = IRI(NSMagnet + "facet")
	// AnnTreeShaped tells Magnet the data is a finite tree (XML import), so
	// composition chains may be followed to any depth (paper §6.2).
	AnnTreeShaped = IRI(NSMagnet + "treeShaped")
)

// PlainName returns the best human-readable name for a property IRI given
// only the IRI itself (no graph access): its local name with camelCase and
// underscores split into words.
func PlainName(p IRI) string {
	local := p.LocalName()
	out := make([]rune, 0, len(local)+4)
	var prev rune
	for i, r := range local {
		switch {
		case r == '_' || r == '-':
			out = append(out, ' ')
			prev = ' '
			continue
		case i > 0 && isUpper(r) && !isUpper(prev) && prev != ' ':
			out = append(out, ' ')
		}
		out = append(out, r)
		prev = r
	}
	return string(out)
}

func isUpper(r rune) bool { return r >= 'A' && r <= 'Z' }
