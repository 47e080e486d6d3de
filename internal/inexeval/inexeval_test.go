package inexeval

import (
	"testing"

	"magnet/internal/datasets/inex"
	"magnet/internal/rdf"
)

var rdfType = rdf.Type

func run(t *testing.T, skipTree bool) []Result {
	t.Helper()
	c, err := inex.Build(inex.Config{Articles: 120, SkipTreeAnnotation: skipTree})
	if err != nil {
		t.Fatal(err)
	}
	return Open(c).Run()
}

func TestCOTopicsHighRecall(t *testing.T) {
	// §6.2: "Since Magnet is built on these techniques, it would have been
	// able to retrieve all such documents."
	results := run(t, false)
	for _, r := range results {
		if r.Topic.Kind != inex.CO {
			continue
		}
		if r.Recall < 0.8 {
			t.Errorf("CO topic %s recall = %.2f, want ≥ 0.8 (relevant=%d)",
				r.Topic.ID, r.Recall, len(r.Topic.Relevant))
		}
	}
}

func TestCASTopicsRetrieveMost(t *testing.T) {
	// §6.2: "Magnet's navigation engine did have the flexibility to
	// retrieve most of the documents needed."
	results := run(t, false)
	for _, r := range results {
		if r.Topic.Kind != inex.CAS {
			continue
		}
		if r.Recall < 0.5 {
			t.Errorf("CAS topic %s recall = %.2f, want ≥ 0.5 (relevant=%d)",
				r.Topic.ID, r.Recall, len(r.Topic.Relevant))
		}
	}
}

func TestTreeAnnotationAblation(t *testing.T) {
	// Without the tree annotation Magnet "would not follow multiple steps
	// by default": CAS recall collapses while CO is unaffected (CO resolves
	// through the text index, not through composed coordinates).
	with := run(t, false)
	without := run(t, true)

	casWith := MeanRecall(with, inex.CAS)
	casWithout := MeanRecall(without, inex.CAS)
	if casWithout >= casWith {
		t.Errorf("CAS recall should drop without tree annotation: %.2f → %.2f",
			casWith, casWithout)
	}
	coWith := MeanRecall(with, inex.CO)
	coWithout := MeanRecall(without, inex.CO)
	if coWithout < coWith-0.05 {
		t.Errorf("CO recall should be unaffected: %.2f → %.2f", coWith, coWithout)
	}
}

func TestRetrievedAreTargetClass(t *testing.T) {
	c, err := inex.Build(inex.Config{Articles: 120})
	if err != nil {
		t.Fatal(err)
	}
	sys := Open(c)
	for _, r := range sys.Run() {
		if len(r.Retrieved) == 0 {
			t.Errorf("topic %s retrieved nothing", r.Topic.ID)
			continue
		}
		// Every retrieved item must have the topic's target element type —
		// CAS1's structural hop lands on vita elements, CO hits climb to
		// articles.
		for _, it := range r.Retrieved {
			if !sys.M.Graph().Has(it, rdfType, r.Topic.TargetClass) {
				t.Errorf("topic %s retrieved %s of wrong type", r.Topic.ID, it)
			}
		}
	}
}

func TestMeanRecallEmpty(t *testing.T) {
	if MeanRecall(nil, inex.CO) != 0 {
		t.Error("empty mean should be 0")
	}
}
