package core_test

import (
	"testing"

	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
	"magnet/internal/ids"
	"magnet/internal/rdf"
	"magnet/internal/text"
)

// TestTextCountsMatchRecount checks the text index's counts on the full
// 6,444-recipe corpus against a recount from the graph's statements: each
// item's visible string literals, run through Tokenize and Term. Every
// term's DF must equal the number of items holding it, and every subject
// ID's DocLength the number of tokens it kept, both on the image compiled
// in memory and on its segment round trip. Skipped under -short.
func TestTextCountsMatchRecount(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus recount skipped in -short mode")
	}
	m := core.Open(recipes.Build(recipes.Config{Recipes: 6444, Seed: 1}), core.Options{})
	defer m.Close()
	g, sch := m.Graph(), m.Schema()

	items := make(map[rdf.IRI]bool)
	for _, it := range m.Items() {
		items[it] = true
	}
	docsWith := make(map[string]map[uint32]bool)
	length := make(map[uint32]int)
	g.ForEach(func(st rdf.Statement) bool {
		lit, ok := st.Object.(rdf.Literal)
		if !items[st.Subject] || sch.Hidden(st.Predicate) || !ok || (lit.Datatype != "" && lit.Datatype != rdf.XSDString) {
			return true
		}
		id, _ := g.SubjectID(st.Subject)
		for _, tok := range text.Tokenize(lit.Lexical) {
			term, ok := text.DefaultAnalyzer.Term(tok)
			if !ok {
				continue
			}
			if docsWith[term] == nil {
				docsWith[term] = make(map[uint32]bool)
			}
			docsWith[term][id] = true
			length[id]++
		}
		return true
	})
	if len(docsWith) == 0 || len(length) == 0 {
		t.Fatal("the recount found no text; the test checks nothing")
	}

	check := func(name string, inst *core.Magnet) {
		t.Helper()
		ix := inst.TextIndex()
		c := ix.Columns()
		terms := ids.NewStrings(c.TermOff, c.TermBlob)
		if terms.Len() != len(docsWith) || len(c.DF) != len(docsWith) {
			t.Fatalf("%s: %d terms, %d DF counts; the recount has %d terms", name, terms.Len(), len(c.DF), len(docsWith))
		}
		for i := 0; i < terms.Len(); i++ {
			if got, want := int(c.DF[i]), len(docsWith[terms.At(i)]); got != want {
				t.Errorf("%s: DF(%q) = %d, recount %d", name, terms.At(i), got, want)
			}
		}
		for id := uint32(0); id < uint32(g.SubjectTable().Len())+2; id++ {
			if got, want := ix.DocLength(id), length[id]; got != want {
				t.Errorf("%s: DocLength(%d) = %d, recount %d", name, id, got, want)
			}
		}
		if int(c.Live) != len(length) {
			t.Errorf("%s: %d live documents, recount %d", name, c.Live, len(length))
		}
	}
	check("in memory", m)

	dir := t.TempDir()
	if _, err := m.WriteSegments(dir, "recipes", nil); err != nil {
		t.Fatalf("WriteSegments: %v", err)
	}
	seg, err := core.OpenSegments(dir, core.Options{})
	if err != nil {
		t.Fatalf("OpenSegments: %v", err)
	}
	defer seg.Close()
	check("segments", seg)
}
