package csvrdf

import (
	"strings"
	"testing"

	"magnet/internal/rdf"
)

const ns = "http://e/"

func TestFromCSVBasic(t *testing.T) {
	src := "state,bird,area\nOhio,Cardinal,44826\nAlaska,Willow Ptarmigan,665384\n"
	b := rdf.NewBuilder()
	rows, err := FromCSV(b, strings.NewReader(src), ns, "state")
	if err != nil {
		t.Fatal(err)
	}
	g := b.Freeze()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0] != Row(ns, "Ohio") {
		t.Errorf("row[0] = %s", rows[0])
	}
	bird, ok := g.Object(Row(ns, "Ohio"), Prop(ns, "bird"))
	if !ok || bird.(rdf.Literal).Lexical != "Cardinal" {
		t.Errorf("bird = %v", bird)
	}
	// All values are plain strings (the "as given" Figure 7 behaviour).
	area, _ := g.Object(Row(ns, "Alaska"), Prop(ns, "area"))
	if area.(rdf.Literal).Datatype != "" {
		t.Error("CSV values must stay plain strings")
	}
}

func TestFromCSVDefaultKeyColumn(t *testing.T) {
	src := "name,color\nrose,red\n"
	rows, err := FromCSV(rdf.NewBuilder(), strings.NewReader(src), ns, "")
	if err != nil || len(rows) != 1 || rows[0] != Row(ns, "rose") {
		t.Errorf("rows = %v, err = %v", rows, err)
	}
}

func TestFromCSVSkipsEmptyCells(t *testing.T) {
	src := "name,color\nrose,\n"
	b := rdf.NewBuilder()
	if _, err := FromCSV(b, strings.NewReader(src), ns, ""); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Freeze().Object(Row(ns, "rose"), Prop(ns, "color")); ok {
		t.Error("empty cell should not produce a triple")
	}
}

func TestFromCSVErrors(t *testing.T) {
	tests := []struct{ name, src, key string }{
		{"empty input", "", ""},
		{"missing key column", "a,b\n1,2\n", "nope"},
		{"empty key cell", "a,b\n,2\n", "a"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := FromCSV(rdf.NewBuilder(), strings.NewReader(tt.src), ns, tt.key); err == nil {
				t.Errorf("expected error for %q", tt.src)
			}
		})
	}
}

func TestSlugging(t *testing.T) {
	if got := Row(ns, "New Hampshire"); got != rdf.IRI(ns+"row/new_hampshire") {
		t.Errorf("Row = %s", got)
	}
	if got := Prop(ns, "State Bird"); got != rdf.IRI(ns+"prop/state_bird") {
		t.Errorf("Prop = %s", got)
	}
	// Punctuation dropped.
	if got := Row(ns, "St. Paul"); got != rdf.IRI(ns+"row/st_paul") {
		t.Errorf("Row = %s", got)
	}
}
