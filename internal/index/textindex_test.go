package index

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"magnet/internal/text"
)

func sampleTextIndex() *TextIndex {
	b := NewTextBuilder(nil)
	b.Index("r1", "title", "Greek Salad")
	b.Index("r1", "body", "feta cheese, olives, parsley and olive oil")
	b.Index("r2", "title", "Walnut Cake")
	b.Index("r2", "body", "walnuts, flour, butter and sugar")
	b.Index("r3", "title", "Greek Walnut Pie")
	b.Index("r3", "body", "honey, walnuts, filo dough and butter")
	return freezeText(b)
}

func TestMatchingAnyField(t *testing.T) {
	ix := sampleTextIndex()
	got := ix.Matching("walnut", AnyField)
	want := []string{"r2", "r3"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Matching = %v, want %v", got, want)
	}
}

func TestMatchingStemsQuery(t *testing.T) {
	ix := sampleTextIndex()
	// "walnuts" should stem to the same term as the indexed "walnut".
	if got := ix.Matching("walnuts", AnyField); len(got) != 2 {
		t.Errorf("Matching(walnuts) = %v", got)
	}
}

func TestMatchingFieldScoped(t *testing.T) {
	ix := sampleTextIndex()
	if got := ix.Matching("walnut", "title"); !reflect.DeepEqual(got, []string{"r2", "r3"}) {
		t.Errorf("title scope = %v", got)
	}
	// "olive" appears only in r1's body.
	if got := ix.Matching("olive", "title"); got != nil {
		t.Errorf("olive in title = %v, want none", got)
	}
	if got := ix.Matching("olive", "body"); !reflect.DeepEqual(got, []string{"r1"}) {
		t.Errorf("olive in body = %v", got)
	}
}

func TestMatchingConjunction(t *testing.T) {
	ix := sampleTextIndex()
	if got := ix.Matching("greek walnut", AnyField); !reflect.DeepEqual(got, []string{"r3"}) {
		t.Errorf("conjunction = %v, want [r3]", got)
	}
	if got := ix.Matching("greek anchovy", AnyField); got != nil {
		t.Errorf("impossible conjunction = %v", got)
	}
	if got := ix.Matching("", AnyField); got != nil {
		t.Errorf("empty query = %v", got)
	}
	if got := ix.Matching("the of and", AnyField); got != nil {
		t.Errorf("stop-word-only query = %v", got)
	}
}

func TestSearchRanking(t *testing.T) {
	b := NewTextBuilder(nil)
	b.Index("heavy", "body", "butter butter butter bread")
	b.Index("light", "body", "butter bread bread bread")
	b.Index("other", "body", "sugar")
	ix := freezeText(b)
	got := ix.Search("butter", AnyField, 10)
	if len(got) != 2 {
		t.Fatalf("Search = %v", got)
	}
	if got[0].ID != "heavy" || got[0].Score <= got[1].Score {
		t.Errorf("ranking = %v, want heavy first", got)
	}
}

func TestSearchPartialMatchRanked(t *testing.T) {
	ix := sampleTextIndex()
	// Query with one matching and one unknown term still returns results.
	got := ix.Search("walnut zzzunknown", AnyField, 10)
	if len(got) != 2 {
		t.Errorf("Search = %v, want the two walnut docs", got)
	}
	// k limit.
	if got := ix.Search("walnut", AnyField, 1); len(got) != 1 {
		t.Errorf("k=1 gave %v", got)
	}
}

func TestFieldsAndTermCounts(t *testing.T) {
	ix := sampleTextIndex()
	if got := ix.Fields("r1"); !reflect.DeepEqual(got, []string{"body", "title"}) {
		t.Errorf("Fields = %v", got)
	}
	counts := ix.FieldTermCounts("r1", "body")
	if counts[text.Stem("olives")] == 0 {
		t.Errorf("term counts = %v, want stemmed olives present", counts)
	}
}

func TestIndexAccumulates(t *testing.T) {
	b := NewTextBuilder(nil)
	b.Index("d", "body", "butter")
	b.Index("d", "body", "butter again")
	ix := freezeText(b)
	counts := ix.FieldTermCounts("d", "body")
	if counts["butter"] != 2 {
		t.Errorf("accumulated count = %d, want 2", counts["butter"])
	}
}

func TestTextIndexConcurrent(t *testing.T) {
	b := NewTextBuilder(nil)
	for i := 0; i < 25; i++ {
		b.Index(fmt.Sprintf("d%d", i), "body", "shared words plus unique")
	}
	ix := freezeText(b)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				if got := ix.Matching("shared", AnyField); len(got) != 25 {
					t.Errorf("Matching = %d docs, want 25", len(got))
				}
				ix.Search("words unique", AnyField, 5)
				ix.Surface("share")
			}
		}()
	}
	wg.Wait()
	if ix.c.Live != 25 {
		t.Errorf("live documents = %d, want 25", ix.c.Live)
	}
}
