package states

import (
	"strings"
	"testing"

	"magnet/internal/datasets/csvrdf"
	"magnet/internal/rdf"
	"magnet/internal/schema"
)

func TestFiftyStates(t *testing.T) {
	b, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	g := b.Freeze()
	rows := 0
	for _, s := range g.SubjectsFromIDs(g.AllSubjectIDs().Slice()) {
		if strings.Contains(string(s), "row/") {
			rows++
		}
	}
	if rows != 50 {
		t.Errorf("states = %d, want 50", rows)
	}
}

func TestSevenCardinalStates(t *testing.T) {
	// The paper's §6.1 observation: "seven states have 'cardinal' in their
	// bird names".
	b, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	g := b.Freeze()
	cardinals := g.Subjects(PropBird, rdf.NewString("Cardinal"))
	if len(cardinals) != 7 {
		t.Fatalf("cardinal states = %d, want 7: %v", len(cardinals), cardinals)
	}
	want := map[rdf.IRI]bool{
		csvrdf.Row(NS, "Illinois"): true, csvrdf.Row(NS, "Indiana"): true, csvrdf.Row(NS, "Kentucky"): true,
		csvrdf.Row(NS, "North Carolina"): true, csvrdf.Row(NS, "Ohio"): true, csvrdf.Row(NS, "Virginia"): true,
		csvrdf.Row(NS, "West Virginia"): true,
	}
	for _, s := range cardinals {
		if !want[s] {
			t.Errorf("unexpected cardinal state %s", s)
		}
	}
}

func TestUnannotatedIsStringly(t *testing.T) {
	b, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	g := b.Freeze()
	sch := schema.NewStore(g)
	// Figure 7: no labels, area is a plain string (Text), raw identifiers.
	if sch.HasLabel(PropBird) {
		t.Error("bird should be unlabeled before Annotate")
	}
	if vt := sch.ValueType(PropArea); vt != schema.Text {
		t.Errorf("unannotated area type = %v, want Text", vt)
	}
}

func TestAnnotateEnablesFigure8(t *testing.T) {
	b, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	Annotate(b)
	g := b.Freeze()
	sch := schema.NewStore(g)
	if !sch.HasLabel(PropBird) || sch.Label(PropBird) != "State bird" {
		t.Errorf("bird label = %q", sch.Label(PropBird))
	}
	if vt := sch.ValueType(PropArea); vt != schema.Integer {
		t.Errorf("annotated area type = %v, want Integer", vt)
	}
	// Area values parse as numbers even though stored as strings.
	o, _ := g.Object(csvrdf.Row(NS, "Alaska"), PropArea)
	f, ok := o.(rdf.Literal).Float()
	if !ok || f != 665384 {
		t.Errorf("Alaska area = %v", o)
	}
}

func TestAlaskaIsAreaOutlier(t *testing.T) {
	b, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	g := b.Freeze()
	var maxState rdf.IRI
	var maxArea float64
	for _, s := range g.SubjectsFromIDs(g.AllSubjectIDs().Slice()) {
		o, ok := g.Object(s, PropArea)
		if !ok {
			continue
		}
		if f, ok := o.(rdf.Literal).Float(); ok && f > maxArea {
			maxArea, maxState = f, s
		}
	}
	if maxState != csvrdf.Row(NS, "Alaska") {
		t.Errorf("largest state = %s", maxState)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	if !strings.HasPrefix(csvData, "state,capital,bird,flower,area,admitted") {
		t.Error("CSV header changed")
	}
	if n := strings.Count(csvData, "\n"); n != 51 {
		t.Errorf("CSV lines = %d, want 51 (header + 50)", n)
	}
}
