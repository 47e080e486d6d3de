package inex

import (
	"strings"
	"testing"

	"magnet/internal/rdf"
	"magnet/internal/schema"
	"magnet/internal/xmlconv"
)

func build(t *testing.T, cfg Config) *Corpus {
	t.Helper()
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCorpusShape(t *testing.T) {
	c := build(t, Config{Articles: 60})
	g := c.Graph.Freeze()
	articles := g.SubjectsOfType(ClassArticle)
	if len(articles) != 60 {
		t.Fatalf("articles = %d", len(articles))
	}
	// Every article has at least one author with status/research/vita.
	for _, a := range articles[:10] {
		authors := g.Objects(a, PropAuthor)
		if len(authors) == 0 {
			t.Fatalf("%s has no authors", a)
		}
		au := authors[0].(rdf.IRI)
		for _, p := range []rdf.IRI{xmlconv.Prop(NS, "name"), PropStatus, PropResearch, PropVita} {
			if _, ok := g.Object(au, p); !ok {
				t.Errorf("author missing %s", p.LocalName())
			}
		}
		if len(g.Objects(a, PropSection)) == 0 {
			t.Errorf("%s has no sections", a)
		}
	}
}

func TestTopicsHaveGroundTruth(t *testing.T) {
	c := build(t, Config{Articles: 120})
	if len(c.Topics) != 4 {
		t.Fatalf("topics = %d", len(c.Topics))
	}
	g := c.Graph.Freeze()
	for _, topic := range c.Topics {
		if len(topic.Relevant) == 0 {
			t.Errorf("topic %s has empty ground truth", topic.ID)
		}
		// Relevant items carry the right element type.
		for _, it := range topic.Relevant {
			if !g.Has(it, rdf.Type, topic.TargetClass) {
				t.Errorf("topic %s: %s is not a %s", topic.ID, it, topic.TargetClass.LocalName())
			}
		}
	}
}

func TestCAS1GroundTruthSemantics(t *testing.T) {
	c := build(t, Config{Articles: 120})
	var cas1 Topic
	for _, tp := range c.Topics {
		if tp.ID == "CAS1" {
			cas1 = tp
		}
	}
	g := c.Graph.Freeze()
	// Each relevant vita belongs to a graduate student researching IR.
	for _, vita := range cas1.Relevant {
		authors := g.Subjects(PropVita, vita)
		if len(authors) != 1 {
			t.Fatalf("vita %s has %d authors", vita, len(authors))
		}
		au := authors[0]
		st, _ := g.Object(au, PropStatus)
		stText, _ := g.Object(st.(rdf.IRI), PropText)
		if stText.(rdf.Literal).Lexical != "graduate student" {
			t.Errorf("relevant vita author status = %v", stText)
		}
	}
	// And no grad-student-IR vita is missing from the ground truth.
	want := map[rdf.IRI]bool{}
	for _, v := range cas1.Relevant {
		want[v] = true
	}
	for _, au := range g.SubjectsOfType(ClassAuthor) {
		st, ok1 := textOf(g, au, PropStatus)
		re, ok2 := textOf(g, au, PropResearch)
		if ok1 && ok2 && st == "graduate student" && re == "information retrieval" {
			v, _ := g.Object(au, PropVita)
			if !want[v.(rdf.IRI)] {
				t.Errorf("vita %s missing from CAS1 ground truth", v)
			}
		}
	}
}

func textOf(g *rdf.Graph, s rdf.IRI, p rdf.IRI) (string, bool) {
	o, ok := g.Object(s, p)
	if !ok {
		return "", false
	}
	node, ok := o.(rdf.IRI)
	if !ok {
		return "", false
	}
	txt, ok := g.Object(node, PropText)
	if !ok {
		return "", false
	}
	return txt.(rdf.Literal).Lexical, true
}

func TestTreeAnnotationToggle(t *testing.T) {
	c := build(t, Config{Articles: 20})
	if !schema.NewStore(c.Graph.Freeze()).TreeShaped() {
		t.Error("corpus should default to tree-shaped")
	}
	c2 := build(t, Config{Articles: 20, SkipTreeAnnotation: true})
	if schema.NewStore(c2.Graph.Freeze()).TreeShaped() {
		t.Error("SkipTreeAnnotation ignored")
	}
}

func TestRelMarkerHidden(t *testing.T) {
	c := build(t, Config{Articles: 20})
	if !schema.NewStore(c.Graph.Freeze()).Hidden(PropRel) {
		t.Error("relevance marker must be hidden from navigation and the VSM")
	}
}

func TestXMLWellFormedAndDeterministic(t *testing.T) {
	a := build(t, Config{Articles: 30, Seed: 4})
	b := build(t, Config{Articles: 30, Seed: 4})
	if a.XML != b.XML {
		t.Error("XML generation nondeterministic")
	}
	if !strings.HasPrefix(a.XML, "<collection>") {
		t.Error("unexpected XML root")
	}
	if a.Root == "" {
		t.Error("empty root IRI")
	}
}
