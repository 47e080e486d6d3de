package inbox

import (
	"testing"
	"time"

	"magnet/internal/rdf"
	"magnet/internal/schema"
)

func TestBuildMixesMessagesAndNews(t *testing.T) {
	g := Build(Config{}).Freeze()
	msgs := g.SubjectsOfType(ClassMessage)
	news := g.SubjectsOfType(ClassNewsItem)
	if len(msgs) == 0 || len(news) == 0 {
		t.Fatalf("messages=%d news=%d; need both for the type-refinement suggestion", len(msgs), len(news))
	}
	if len(msgs)+len(news) != 180 {
		t.Errorf("total = %d", len(msgs)+len(news))
	}
}

func TestEveryMailHasBodyDocument(t *testing.T) {
	g := Build(Config{Messages: 50}).Freeze()
	for _, m := range append(g.SubjectsOfType(ClassMessage), g.SubjectsOfType(ClassNewsItem)...) {
		body, ok := g.Object(m, PropBody)
		if !ok {
			t.Fatalf("%s missing body", m)
		}
		b := body.(rdf.IRI)
		if !g.Has(b, rdf.Type, ClassDocument) {
			t.Errorf("body %s untyped", b)
		}
		for _, p := range []rdf.IRI{PropContent, PropCreator, PropDate} {
			if _, ok := g.Object(b, p); !ok {
				t.Errorf("body %s missing %s", b, p.LocalName())
			}
		}
	}
}

func TestBodyCompositionAnnotation(t *testing.T) {
	g := Build(Config{Messages: 10}).Freeze()
	sch := schema.NewStore(g)
	if !sch.Composable(PropBody) {
		t.Error("body must carry the composition annotation (§6.1)")
	}
	if sch.ValueType(PropSent) != schema.Date {
		t.Errorf("sent type = %v", sch.ValueType(PropSent))
	}
}

func TestSentDatesWithinWindow(t *testing.T) {
	start := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	g := Build(Config{Messages: 60, Start: start}).Freeze()
	for _, m := range g.SubjectsOfType(ClassMessage) {
		o, ok := g.Object(m, PropSent)
		if !ok {
			t.Fatalf("%s missing sent", m)
		}
		ts, ok := o.(rdf.Literal).Time()
		if !ok {
			t.Fatalf("unparseable sent %v", o)
		}
		if ts.Before(start) || ts.After(start.AddDate(0, 3, 0)) {
			t.Errorf("sent %v outside window", ts)
		}
	}
}

func TestSendersAreResources(t *testing.T) {
	g := Build(Config{Messages: 40}).Freeze()
	for _, m := range g.SubjectsOfType(ClassMessage)[:5] {
		from, ok := g.Object(m, PropFrom)
		if !ok {
			t.Fatal("missing from")
		}
		p := from.(rdf.IRI)
		if !g.Has(p, rdf.Type, ClassPerson) {
			t.Errorf("sender %s untyped", p)
		}
		if !g.HasLabel(p) {
			t.Errorf("sender %s unlabeled", p)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a := Build(Config{Messages: 30, Seed: 5}).Freeze()
	b := Build(Config{Messages: 30, Seed: 5}).Freeze()
	if len(a.AllStatements()) != len(b.AllStatements()) {
		t.Fatal("nondeterministic size")
	}
}
