package xmlconv

import (
	"strings"
	"testing"

	"magnet/internal/rdf"
	"magnet/internal/schema"
)

const ns = "http://e/"

func convert(t *testing.T, doc string, opts Options) (*rdf.Graph, rdf.IRI) {
	t.Helper()
	gb := rdf.NewBuilder()
	if opts.NS == "" {
		opts.NS = ns
	}
	root, err := Convert(gb, strings.NewReader(doc), opts)
	if err != nil {
		t.Fatal(err)
	}
	return gb.Freeze(), root
}

func TestConvertBasicStructure(t *testing.T) {
	doc := `<?xml version="1.0"?>
<article id="a1">
  <title>On Retrieval</title>
  <author><name>Alice</name></author>
</article>`
	g, root := convert(t, doc, Options{})

	if !g.Has(root, rdf.Type, ElementClass(ns, "article")) {
		t.Error("root not typed article")
	}
	// Attribute.
	if o, ok := g.Object(root, Prop(ns, "id")); !ok || o.(rdf.Literal).Lexical != "a1" {
		t.Errorf("id attribute = %v", o)
	}
	// Child element with text.
	title, ok := g.Object(root, Prop(ns, "title"))
	if !ok {
		t.Fatal("title child missing")
	}
	titleNode := title.(rdf.IRI)
	if o, _ := g.Object(titleNode, TextProp(ns)); o.(rdf.Literal).Lexical != "On Retrieval" {
		t.Errorf("title text = %v", o)
	}
	// Nested chain article→author→name.
	author, _ := g.Object(root, Prop(ns, "author"))
	name, ok := g.Object(author.(rdf.IRI), Prop(ns, "name"))
	if !ok {
		t.Fatal("author name missing")
	}
	if o, _ := g.Object(name.(rdf.IRI), TextProp(ns)); o.(rdf.Literal).Lexical != "Alice" {
		t.Errorf("name text = %v", o)
	}
}

func TestConvertMixedContent(t *testing.T) {
	doc := `<p>before <em>inner</em> after</p>`
	g, root := convert(t, doc, Options{})
	o, _ := g.Object(root, TextProp(ns))
	if got := o.(rdf.Literal).Lexical; got != "before after" {
		t.Errorf("mixed text = %q", got)
	}
	if _, ok := g.Object(root, Prop(ns, "em")); !ok {
		t.Error("inner element lost")
	}
}

func TestConvertSetsTreeAnnotation(t *testing.T) {
	g, _ := convert(t, `<a/>`, Options{})
	if !schema.NewStore(g).TreeShaped() {
		t.Error("tree annotation missing")
	}
	g2, _ := convert(t, `<a/>`, Options{SkipTreeAnnotation: true})
	if schema.NewStore(g2).TreeShaped() {
		t.Error("SkipTreeAnnotation ignored")
	}
}

func TestConvertDeterministicNodeIDs(t *testing.T) {
	doc := `<a><b/><b/><c/></a>`
	g1, r1 := convert(t, doc, Options{})
	g2, r2 := convert(t, doc, Options{})
	if r1 != r2 {
		t.Errorf("roots differ: %s vs %s", r1, r2)
	}
	if len(g1.AllStatements()) != len(g2.AllStatements()) {
		t.Error("conversion nondeterministic")
	}
	// Sibling elements of the same tag become distinct resources.
	bs := g1.Objects(r1, Prop(ns, "b"))
	if len(bs) != 2 || bs[0].Key() == bs[1].Key() {
		t.Errorf("b children = %v", bs)
	}
}

func TestConvertErrors(t *testing.T) {
	for _, doc := range []string{"", "   ", "<a><b></a>", "<a>"} {
		gb := rdf.NewBuilder()
		if _, err := Convert(gb, strings.NewReader(doc), Options{NS: ns}); err == nil {
			t.Errorf("expected error for %q", doc)
		}
	}
	// Missing NS.
	gb := rdf.NewBuilder()
	if _, err := Convert(gb, strings.NewReader("<a/>"), Options{}); err == nil {
		t.Error("expected error for missing NS")
	}
}

func TestConvertWhitespaceHandling(t *testing.T) {
	doc := "<a>\n  \n</a>"
	g, root := convert(t, doc, Options{})
	if _, ok := g.Object(root, TextProp(ns)); ok {
		t.Error("whitespace-only text should be dropped by default")
	}
	g2, root2 := convert(t, doc, Options{KeepWhitespaceText: true})
	if _, ok := g2.Object(root2, TextProp(ns)); !ok {
		t.Error("KeepWhitespaceText ignored")
	}
}

func TestConvertEntityEscapes(t *testing.T) {
	g, root := convert(t, `<a attr="x &amp; y">1 &lt; 2</a>`, Options{})
	if o, _ := g.Object(root, Prop(ns, "attr")); o.(rdf.Literal).Lexical != "x & y" {
		t.Errorf("attr = %v", o)
	}
	if o, _ := g.Object(root, TextProp(ns)); o.(rdf.Literal).Lexical != "1 < 2" {
		t.Errorf("text = %v", o)
	}
}
