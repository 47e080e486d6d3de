package rdf

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"magnet/internal/index"
	"magnet/internal/itemset"
)

const ex = "http://example.org/"

func testGraph() *Graph { return testBuilder().Freeze() }

func testBuilder() *Builder {
	g := NewBuilder()
	g.Add(IRI(ex+"r1"), Type, IRI(ex+"Recipe"))
	g.Add(IRI(ex+"r1"), IRI(ex+"cuisine"), IRI(ex+"Greek"))
	g.Add(IRI(ex+"r1"), IRI(ex+"ingredient"), IRI(ex+"Parsley"))
	g.Add(IRI(ex+"r1"), IRI(ex+"ingredient"), IRI(ex+"Feta"))
	g.Add(IRI(ex+"r2"), Type, IRI(ex+"Recipe"))
	g.Add(IRI(ex+"r2"), IRI(ex+"cuisine"), IRI(ex+"Greek"))
	g.Add(IRI(ex+"r2"), IRI(ex+"ingredient"), IRI(ex+"Feta"))
	g.Add(IRI(ex+"r3"), Type, IRI(ex+"Recipe"))
	g.Add(IRI(ex+"r3"), IRI(ex+"cuisine"), IRI(ex+"Mexican"))
	return g
}

func TestGraphAddDuplicate(t *testing.T) {
	g := NewBuilder()
	if !g.Add(IRI(ex+"a"), Type, IRI(ex+"T")) {
		t.Error("first Add should report new")
	}
	if g.Add(IRI(ex+"a"), Type, IRI(ex+"T")) {
		t.Error("duplicate Add should report existing")
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
}

func TestGraphObjectsSorted(t *testing.T) {
	g := testGraph()
	objs := g.Objects(IRI(ex+"r1"), IRI(ex+"ingredient"))
	want := []Term{IRI(ex + "Feta"), IRI(ex + "Parsley")}
	if !reflect.DeepEqual(objs, want) {
		t.Errorf("Objects = %v, want %v", objs, want)
	}
}

func TestGraphSubjectsReverseIndex(t *testing.T) {
	g := testGraph()
	subs := g.Subjects(IRI(ex+"ingredient"), IRI(ex+"Feta"))
	want := []IRI{IRI(ex + "r1"), IRI(ex + "r2")}
	if !reflect.DeepEqual(subs, want) {
		t.Errorf("Subjects = %v, want %v", subs, want)
	}
	if n := g.SubjectCount(IRI(ex+"ingredient"), IRI(ex+"Feta")); n != 2 {
		t.Errorf("SubjectCount = %d, want 2", n)
	}
}

func TestGraphRemove(t *testing.T) {
	b := testBuilder()
	n := b.Len()
	if !b.Remove(IRI(ex+"r1"), IRI(ex+"ingredient"), IRI(ex+"Feta")) {
		t.Fatal("Remove of present triple should return true")
	}
	if b.Remove(IRI(ex+"r1"), IRI(ex+"ingredient"), IRI(ex+"Feta")) {
		t.Error("second Remove should return false")
	}
	g := b.Freeze()
	if g.Len() != n-1 {
		t.Errorf("Len = %d, want %d", g.Len(), n-1)
	}
	if g.Has(IRI(ex+"r1"), IRI(ex+"ingredient"), IRI(ex+"Feta")) {
		t.Error("removed triple still present")
	}
	// Reverse index updated too.
	subs := g.Subjects(IRI(ex+"ingredient"), IRI(ex+"Feta"))
	if !reflect.DeepEqual(subs, []IRI{IRI(ex + "r2")}) {
		t.Errorf("Subjects after Remove = %v", subs)
	}
}

func TestGraphRemoveCleansEmptyIndexEntries(t *testing.T) {
	b := NewBuilder()
	b.Add(IRI(ex+"a"), IRI(ex+"p"), NewString("v"))
	b.Remove(IRI(ex+"a"), IRI(ex+"p"), NewString("v"))
	g := b.Freeze()
	if g.HasSubject(IRI(ex + "a")) {
		t.Error("subject should disappear when its last triple is removed")
	}
	if preds := g.Predicates(); len(preds) != 0 {
		t.Errorf("Predicates = %v, want empty", preds)
	}
	if g.Len() != 0 {
		t.Errorf("Len = %d, want 0", g.Len())
	}
}

func TestGraphTypesAndSubjectsOfType(t *testing.T) {
	g := testGraph()
	recipes := g.SubjectsOfType(IRI(ex + "Recipe"))
	if len(recipes) != 3 {
		t.Fatalf("SubjectsOfType = %v, want 3 recipes", recipes)
	}
	types := g.Types(IRI(ex + "r1"))
	if !reflect.DeepEqual(types, []IRI{IRI(ex + "Recipe")}) {
		t.Errorf("Types = %v", types)
	}
}

func TestGraphLabelFallsBackToPlainName(t *testing.T) {
	b := NewBuilder()
	s := IRI(ex + "ns#appleCobbler")
	if got := b.Freeze().Label(s); got != "apple Cobbler" {
		t.Errorf("Label without rdfs:label = %q", got)
	}
	b.Add(s, Label, NewString("Apple Cobbler Cake"))
	g := b.Freeze()
	if got := g.Label(s); got != "Apple Cobbler Cake" {
		t.Errorf("Label = %q", got)
	}
	if !g.HasLabel(s) {
		t.Error("HasLabel should be true after adding rdfs:label")
	}
}

func TestGraphLabelPrefersMagnetAnnotation(t *testing.T) {
	b := NewBuilder()
	s := IRI(ex + "p")
	b.Add(s, Label, NewString("imported"))
	b.Add(s, AnnLabel, NewString("annotated"))
	g := b.Freeze()
	if got := g.Label(s); got != "annotated" {
		t.Errorf("Label = %q, want magnet:label to win", got)
	}
}

func TestGraphTermLabel(t *testing.T) {
	b := testBuilder()
	b.Add(IRI(ex+"Greek"), Label, NewString("Greek cuisine"))
	g := b.Freeze()
	if got := g.TermLabel(IRI(ex + "Greek")); got != "Greek cuisine" {
		t.Errorf("TermLabel(IRI) = %q", got)
	}
	if got := g.TermLabel(NewString("parsley")); got != "parsley" {
		t.Errorf("TermLabel(literal) = %q", got)
	}
}

func TestGraphObjectsOfEnumeratesValueDomain(t *testing.T) {
	g := testGraph()
	vals := g.ObjectsOf(IRI(ex + "cuisine"))
	want := []Term{IRI(ex + "Greek"), IRI(ex + "Mexican")}
	if !reflect.DeepEqual(vals, want) {
		t.Errorf("ObjectsOf = %v, want %v", vals, want)
	}
}

func TestGraphStatementsDeterministic(t *testing.T) {
	g := testGraph()
	a := g.AllStatements()
	b := g.AllStatements()
	if !reflect.DeepEqual(a, b) {
		t.Error("AllStatements not deterministic")
	}
	if len(a) != g.Len() {
		t.Errorf("AllStatements len = %d, Len() = %d", len(a), g.Len())
	}
}

func TestGraphForEachEarlyStop(t *testing.T) {
	g := testGraph()
	n := 0
	g.ForEach(func(Statement) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("ForEach visited %d, want early stop at 2", n)
	}
}

// Property: adding a set of random triples then removing them all leaves the
// graph empty, and size bookkeeping never drifts.
func TestQuickGraphAddRemoveInverse(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewBuilder()
		var added []Statement
		for i := 0; i < int(n%40)+1; i++ {
			st := Statement{
				Subject:   IRI(fmt.Sprintf("%ss%d", ex, rng.Intn(10))),
				Predicate: IRI(fmt.Sprintf("%sp%d", ex, rng.Intn(5))),
				Object:    NewInteger(int64(rng.Intn(8))),
			}
			if g.Add(st.Subject, st.Predicate, st.Object) {
				added = append(added, st)
			}
		}
		if g.Len() != len(added) {
			return false
		}
		for _, st := range added {
			if !g.Remove(st.Subject, st.Predicate, st.Object) {
				return false
			}
		}
		return g.Len() == 0 && len(g.Freeze().AllStatements()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: forward and reverse indexes agree — every (s,p,o) reachable via
// Objects is reachable via Subjects and vice versa.
func TestQuickGraphIndexesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		for i := 0; i < 60; i++ {
			b.Add(
				IRI(fmt.Sprintf("%ss%d", ex, rng.Intn(12))),
				IRI(fmt.Sprintf("%sp%d", ex, rng.Intn(4))),
				NewString(fmt.Sprintf("v%d", rng.Intn(6))),
			)
		}
		g := b.Freeze()
		ok := true
		g.ForEach(func(st Statement) bool {
			found := false
			for _, s := range g.Subjects(st.Predicate, st.Object) {
				if s == st.Subject {
					found = true
				}
			}
			if !found {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// valuePostings lists p's values as ForEachValuePosting walks them, each
// with its posting.
func valuePostings(g *Graph, p IRI) []string {
	var out []string
	g.ForEachValuePosting(p, func(o Term, subjects itemset.Set) bool {
		out = append(out, fmt.Sprint(o.Key(), subjects.Slice()))
		return true
	})
	return out
}

// TestForEachValuePostingConcurrentReaders: goroutines make the first
// reads of a freshly frozen graph, text index and vector store at once —
// the lazy key strings, the graph's term table and the vector row cache
// all fill under contention (run under -race). Every reader must see what
// a single reader of an identical copy sees.
func TestForEachValuePostingConcurrentReaders(t *testing.T) {
	preds := []IRI{Type, IRI(ex + "cuisine"), IRI(ex + "ingredient")}
	want := make([][]string, len(preds))
	for i, p := range preds {
		want[i] = valuePostings(testGraph(), p)
	}
	textIndex := func() *index.TextIndex {
		b := index.NewTextBuilder(nil)
		b.Index(ex+"r1", "title", "Greek salad with feta")
		b.Index(ex+"r2", "title", "Feta pie")
		b.Index(ex+"r3", "title", "Mexican beans")
		return b.Freeze()
	}
	vectors := func() *index.VectorStore {
		b := index.NewVectorBuilder()
		b.Add(ex+"r1", map[string]float64{"greek": 1, "feta": 2, "parsley": 1})
		b.Add(ex+"r2", map[string]float64{"greek": 1, "feta": 1})
		b.Add(ex+"r3", map[string]float64{"mexican": 1})
		return b.Freeze()
	}
	wantSearch := fmt.Sprint(textIndex().Search("feta", "", 0))
	wantSimilar := fmt.Sprint(vectors().SimilarTo(map[string]float64{"feta": 1}, 2, nil))

	g, ix, v := testGraph(), textIndex(), vectors()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range preds {
				if got := valuePostings(g, p); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s: walk = %v, want %v", p, got, want[i])
				}
			}
			if got := fmt.Sprint(ix.Search("feta", "", 0)); got != wantSearch {
				t.Errorf("Search = %s, want %s", got, wantSearch)
			}
			if got := fmt.Sprint(v.SimilarTo(map[string]float64{"feta": 1}, 2, nil)); got != wantSimilar {
				t.Errorf("SimilarTo = %s, want %s", got, wantSimilar)
			}
			ix.Surface("feta")
			v.Centroid([]string{ex + "r1", ex + "r2"})
		}()
	}
	wg.Wait()
}
