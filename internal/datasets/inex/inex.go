// Package inex generates an INEX-2003-shaped evaluation corpus (paper
// §6.2): IEEE-style XML articles with nested structure (authors with
// statuses, research areas and vitae; sections with paragraphs), converted
// to RDF through magnet's XML bridge, plus search topics of the two INEX
// kinds — content-and-structure (CAS) and content-only (CO). Ground truth
// is carried on a hidden relevance attribute so the harness can score
// recall without influencing navigation or the vector space model.
//
// The two CAS topics mirror the paper's examples: the "Vitae of graduate
// students researching Information Retrieval" query it analyses in detail,
// and a section-content topic. The CO topics include the paper's "software
// cost estimation".
package inex

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"magnet/internal/rdf"
	"magnet/internal/schema"
	"magnet/internal/xmlconv"
)

// NS is the namespace used for the converted RDF.
const NS = "http://magnet.example.org/inex#"

// Element classes and properties produced by the conversion.
var (
	ClassArticle = xmlconv.ElementClass(NS, "article")
	ClassAuthor  = xmlconv.ElementClass(NS, "author")
	ClassVita    = xmlconv.ElementClass(NS, "vita")
	ClassSection = xmlconv.ElementClass(NS, "section")

	PropAuthor   = xmlconv.Prop(NS, "author")
	PropVita     = xmlconv.Prop(NS, "vita")
	PropSection  = xmlconv.Prop(NS, "section")
	PropPara     = xmlconv.Prop(NS, "para")
	PropTitle    = xmlconv.Prop(NS, "title")
	PropAbstract = xmlconv.Prop(NS, "abstract")
	PropName     = xmlconv.Prop(NS, "name")
	PropStatus   = xmlconv.Prop(NS, "status")
	PropResearch = xmlconv.Prop(NS, "research")
	PropRel      = xmlconv.Prop(NS, "rel") // hidden ground-truth marker
	PropText     = xmlconv.TextProp(NS)
)

// TopicKind distinguishes INEX topic flavours.
type TopicKind int

const (
	// CO is a content-only topic (keywords).
	CO TopicKind = iota
	// CAS is a content-and-structure topic.
	CAS
)

// String returns "CO" or "CAS".
func (k TopicKind) String() string {
	if k == CAS {
		return "CAS"
	}
	return "CO"
}

// Topic is one evaluation topic with its ground truth.
type Topic struct {
	ID   string
	Kind TopicKind
	// Text is the topic's keyword portion.
	Text string
	// TargetClass is the element type the topic asks for (CAS topics).
	TargetClass rdf.IRI
	// Relevant holds the ground-truth item IRIs (after conversion).
	Relevant []rdf.IRI
}

// Corpus bundles the XML, its RDF conversion, and the topics.
type Corpus struct {
	XML    string
	Graph  *rdf.Builder
	Root   rdf.IRI
	Topics []Topic
}

// Config controls generation.
type Config struct {
	// Articles is the corpus size; 0 means 120.
	Articles int
	// Seed defaults to 1.
	Seed int64
	// SkipTreeAnnotation reproduces the §6.2 limitation: without being told
	// the data is a tree, Magnet "would not follow multiple steps by
	// default".
	SkipTreeAnnotation bool
}

var researchAreas = []string{
	"information retrieval", "databases", "machine learning",
	"computer graphics", "distributed systems", "computational biology",
}

var statuses = []string{"graduate student", "faculty", "postdoc"}

var sectionThemes = [][]string{
	{"indexing", "ranking", "relevance", "precision", "recall"},
	{"transactions", "concurrency", "storage", "optimization"},
	{"classifiers", "training", "features", "evaluation", "models"},
	{"rendering", "shading", "meshes", "textures"},
	{"consensus", "replication", "latency", "failures"},
	{"sequences", "proteins", "alignment", "genomes"},
}

// Build generates the corpus: XML text, RDF conversion, topics with ground
// truth resolved against the converted graph.
func Build(cfg Config) (*Corpus, error) {
	n := cfg.Articles
	if n <= 0 {
		n = 120
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	xmlText := generateXML(rng, n)
	g := rdf.NewBuilder()
	root, err := xmlconv.Convert(g, strings.NewReader(xmlText), xmlconv.Options{
		NS:                 NS,
		SkipTreeAnnotation: cfg.SkipTreeAnnotation,
	})
	if err != nil {
		return nil, fmt.Errorf("inex: converting corpus: %w", err)
	}
	annotate(g)

	c := &Corpus{XML: xmlText, Graph: g, Root: root}
	c.Topics = resolveTopics(g.Freeze())
	return c, nil
}

func annotate(g *rdf.Builder) {
	schema.SetHidden(g, PropRel)
	schema.SetLabel(g, PropAuthor, "author")
	schema.SetLabel(g, PropSection, "section")
	schema.SetLabel(g, PropStatus, "status")
	schema.SetLabel(g, PropResearch, "research area")
	schema.SetLabel(g, PropVita, "vita")
	schema.SetLabel(g, PropText, "text")
}

// generateXML emits the collection document. Relevance markers:
//   - rel="CO1" on articles about software cost estimation;
//   - rel="CO2" on articles about query refinement interfaces;
//   - rel="CAS1" on vitae of graduate students researching IR;
//   - rel="CAS2" on articles containing a section about classifier
//     evaluation.
func generateXML(rng *rand.Rand, n int) string {
	var b strings.Builder
	b.WriteString("<collection>\n")
	for i := 0; i < n; i++ {
		theme := rng.Intn(len(sectionThemes))
		words := sectionThemes[theme]

		co1 := i%15 == 3 // software cost estimation articles
		co2 := i%15 == 7 // query refinement articles
		cas2 := theme == 2 && rng.Float64() < 0.5

		var rels []string
		if co1 {
			rels = append(rels, "CO1")
		}
		if co2 {
			rels = append(rels, "CO2")
		}
		if cas2 {
			rels = append(rels, "CAS2")
		}
		relAttr := ""
		if len(rels) > 0 {
			relAttr = fmt.Sprintf(" rel=%q", strings.Join(rels, " "))
		}
		fmt.Fprintf(&b, "  <article id=\"a%03d\"%s>\n", i, relAttr)

		title := fmt.Sprintf("On %s and %s", pick(rng, words), pick(rng, words))
		abstract := fmt.Sprintf("We study %s with emphasis on %s and %s.",
			pick(rng, words), pick(rng, words), pick(rng, words))
		switch {
		case co1:
			title = "Improving software cost estimation models"
			abstract = "Software cost estimation is revisited with calibrated effort models."
		case co2:
			title = "Interfaces for iterative query refinement"
			abstract = "We present interfaces supporting query refinement during search."
		}
		fmt.Fprintf(&b, "    <title>%s</title>\n", title)
		fmt.Fprintf(&b, "    <abstract>%s</abstract>\n", abstract)

		// Authors: 1-3, each with status, research area and a vita.
		nAuthors := rng.Intn(3) + 1
		for a := 0; a < nAuthors; a++ {
			status := statuses[rng.Intn(len(statuses))]
			research := researchAreas[rng.Intn(len(researchAreas))]
			cas1 := status == "graduate student" && research == "information retrieval"
			vitaRel := ""
			if cas1 {
				vitaRel = ` rel="CAS1"`
			}
			fmt.Fprintf(&b, "    <author>\n")
			fmt.Fprintf(&b, "      <name>Author %d-%d</name>\n", i, a)
			fmt.Fprintf(&b, "      <status>%s</status>\n", status)
			fmt.Fprintf(&b, "      <research>%s</research>\n", research)
			fmt.Fprintf(&b, "      <vita%s>%s</vita>\n", vitaRel,
				fmt.Sprintf("Curriculum vitae: %s studying %s since %d.", status, research, 1995+rng.Intn(8)))
			fmt.Fprintf(&b, "    </author>\n")
		}

		// Sections with paragraphs.
		nSections := rng.Intn(3) + 1
		for sIdx := 0; sIdx < nSections; sIdx++ {
			fmt.Fprintf(&b, "    <section>\n")
			secTitle := fmt.Sprintf("Section on %s", pick(rng, words))
			if cas2 && sIdx == 0 {
				secTitle = "Cross-validation protocol for classifier evaluation"
			}
			fmt.Fprintf(&b, "      <title>%s</title>\n", secTitle)
			for p := 0; p < rng.Intn(2)+1; p++ {
				para := fmt.Sprintf("Discussion of %s, %s and %s.",
					pick(rng, words), pick(rng, words), pick(rng, words))
				if cas2 && sIdx == 0 && p == 0 {
					para = "We run cross-validation protocols to evaluate classifier models."
				}
				fmt.Fprintf(&b, "      <para>%s</para>\n", para)
			}
			fmt.Fprintf(&b, "    </section>\n")
		}
		b.WriteString("  </article>\n")
	}
	b.WriteString("</collection>\n")
	return b.String()
}

func pick(rng *rand.Rand, words []string) string {
	return words[rng.Intn(len(words))]
}

// resolveTopics builds the topic list, resolving ground truth through the
// hidden relevance markers.
func resolveTopics(g *rdf.Graph) []Topic {
	topics := []Topic{
		{ID: "CO1", Kind: CO, Text: "software cost estimation", TargetClass: ClassArticle},
		{ID: "CO2", Kind: CO, Text: "query refinement interfaces", TargetClass: ClassArticle},
		{ID: "CAS1", Kind: CAS, Text: "vitae of graduate students researching information retrieval", TargetClass: ClassVita},
		{ID: "CAS2", Kind: CAS, Text: "cross validation protocols for classifier evaluation", TargetClass: ClassArticle},
	}
	for i := range topics {
		topics[i].Relevant = relevantFor(g, topics[i].ID)
	}
	return topics
}

func relevantFor(g *rdf.Graph, topicID string) []rdf.IRI {
	var out []rdf.IRI
	for _, v := range g.ObjectsOf(PropRel) {
		lit, ok := v.(rdf.Literal)
		if !ok {
			continue
		}
		for _, id := range strings.Fields(lit.Lexical) {
			if id == topicID {
				out = append(out, g.Subjects(PropRel, v)...)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return dedupe(out)
}

func dedupe(s []rdf.IRI) []rdf.IRI {
	out := s[:0]
	var prev rdf.IRI
	for i, v := range s {
		if i == 0 || v != prev {
			out = append(out, v)
		}
		prev = v
	}
	return out
}
