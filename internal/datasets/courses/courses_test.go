package courses

import (
	"testing"

	"magnet/internal/rdf"
	"magnet/internal/schema"
)

func TestBuildShape(t *testing.T) {
	g := Build(Config{}).Freeze()
	cs := g.SubjectsOfType(ClassCourse)
	if len(cs) != 160 {
		t.Fatalf("courses = %d", len(cs))
	}
	for _, c := range cs[:10] {
		for _, p := range []rdf.IRI{PropDept, PropInstructor, PropLevel, PropSemester, PropUnits, PropAbout, PropCatalogKey} {
			if _, ok := g.Object(c, p); !ok {
				t.Errorf("%s missing %s", c, p.LocalName())
			}
		}
		if !g.HasLabel(c) {
			t.Errorf("%s unlabeled", c)
		}
	}
}

func TestArrivesAnnotated(t *testing.T) {
	g := Build(Config{Courses: 30}).Freeze()
	sch := schema.NewStore(g)
	if !sch.HasLabel(PropDept) || sch.ValueType(PropUnits) != schema.Integer {
		t.Error("courses dataset should arrive with labels and value types (§6.1)")
	}
}

func TestCatalogKeyHumanOpaqueButShared(t *testing.T) {
	// The §6.1 observation: the internal key is algorithmically significant
	// (values shared across several courses) yet unreadable.
	g := Build(Config{}).Freeze()
	shared := 0
	for _, v := range g.ObjectsOf(PropCatalogKey) {
		if g.SubjectCount(PropCatalogKey, v) >= 2 {
			shared++
		}
	}
	if shared == 0 {
		t.Error("catalog keys should cluster to be algorithmically significant")
	}
	sch := schema.NewStore(g)
	if sch.Hidden(PropCatalogKey) {
		t.Error("catalog key should be visible by default (the pre-annotation state)")
	}
	g2 := Build(Config{HideCatalogKey: true}).Freeze()
	if !schema.NewStore(g2).Hidden(PropCatalogKey) {
		t.Error("HideCatalogKey should hide the property")
	}
}

func TestDeterministic(t *testing.T) {
	a := Build(Config{Courses: 25, Seed: 2}).Freeze()
	b := Build(Config{Courses: 25, Seed: 2}).Freeze()
	if len(a.AllStatements()) != len(b.AllStatements()) {
		t.Fatal("nondeterministic")
	}
}
