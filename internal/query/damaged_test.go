package query

import (
	"reflect"
	"testing"

	"magnet/internal/index"
	"magnet/internal/itemset"
	"magnet/internal/rdf"
	"magnet/internal/schema"
)

// damagedPostings returns c with bad appended to every value's subject
// posting: the shape of a segment whose posting column carries an ID past
// the subject table. bad is the largest ID, so every posting stays sorted.
func damagedPostings(c rdf.GraphColumns, bad uint32) rdf.GraphColumns {
	post := make([]uint32, 0, len(c.PosPost)+len(c.PosValTerm))
	start := make([]uint32, 1, len(c.PosPostStart))
	for v := 0; v+1 < len(c.PosPostStart); v++ {
		post = append(post, c.PosPost[c.PosPostStart[v]:c.PosPostStart[v+1]]...)
		post = append(post, bad)
		start = append(start, uint32(len(post)))
	}
	c.PosPost, c.PosPostStart = post, start
	return c
}

// TestUnionsSkipDamagedPostingIDs evaluates every predicate that unions
// postings through a bitmap over an image whose postings each carry an ID
// past the universe. The result must equal the clean image's: the damaged
// ID reads as absent instead of joining the set (and sizing the bitmap).
func TestUnionsSkipDamagedPostingIDs(t *testing.T) {
	pRegion := rdf.IRI(ex + "region")
	europe := rdf.IRI(ex + "Europe")
	gb := rdf.NewBuilder()
	add := func(id string, cuisine rdf.IRI, servings int64, ing rdf.IRI) {
		it := rdf.IRI(ex + id)
		gb.Add(it, rdf.Type, clsRecipe)
		gb.Add(it, pCuisine, cuisine)
		gb.Add(it, pServings, rdf.NewInteger(servings))
		gb.Add(it, pIngredient, ing)
	}
	add("r1", greek, 4, feta)
	add("r2", greek, 8, walnut)
	add("r3", mexican, 6, walnut)
	gb.Add(greek, pRegion, europe)

	clean := gb.Columns()
	open := func(c rdf.GraphColumns) *Engine {
		g, err := rdf.FromColumns(c)
		if err != nil {
			t.Fatal(err)
		}
		return NewEngine(g, schema.NewStore(g), nil, itemset.Set{})
	}
	want := open(clean)
	universe := uint32(want.g.SubjectTable().Len())
	got := open(damagedPostings(clean, universe+100))

	preds := []Predicate{
		between(pServings, 4, 6),
		PathProperty{Path: []rdf.IRI{pCuisine, pRegion}, Value: europe},
		AnyValueIn{Prop: pIngredient, Values: []rdf.IRI{feta, walnut}},
	}
	for _, p := range preds {
		w, g := p.Eval(want).Slice(), p.Eval(got).Slice()
		if len(w) == 0 {
			t.Fatalf("%s: empty on the clean image; the case checks nothing", p.Key())
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s over damaged postings = %v, want %v", p.Key(), g, w)
		}
	}
}

// damagedText returns c with bad appended to every (term, field) posting:
// a text image whose postings carry an ID past the subject table. bad is
// the largest ID, so every posting stays sorted.
func damagedText(c index.TextColumns, bad uint32) index.TextColumns {
	dns := make([]uint32, 0, len(c.PostDNS)+len(c.PostField))
	tfs := make([]uint32, 0, len(dns))
	start := make([]uint32, 1, len(c.PostStart))
	for i := 0; i+1 < len(c.PostStart); i++ {
		lo, hi := c.PostStart[i], c.PostStart[i+1]
		dns = append(append(dns, c.PostDNS[lo:hi]...), bad)
		tfs = append(append(tfs, c.PostTFS[lo:hi]...), 1)
		start = append(start, uint32(len(dns)))
	}
	c.PostDNS, c.PostTFS, c.PostStart = dns, tfs, start
	return c
}

// TestTextSkipsDamagedPostingIDs evaluates the keyword predicates, and
// reads the text index directly, over an image whose postings each carry
// an ID past the subject table. Every result must equal the clean image's.
// Two fields per item put AnyField matches on the bitmap-union path and
// field-scoped ones on the zero-copy posting path.
func TestTextSkipsDamagedPostingIDs(t *testing.T) {
	e, _ := fixture()
	g, universe := e.g, e.universe
	b := index.NewTextBuilder(nil)
	for _, id := range universe.Slice() {
		title, _ := g.Object(g.SubjectByID(id), rdf.DCTitle)
		b.Index(id, "title", title.(rdf.Literal).Lexical)
		b.Index(id, "body", title.(rdf.Literal).Lexical)
	}
	open := func(c index.TextColumns) (*Engine, *index.TextIndex) {
		tix, err := index.FromTextColumns(nil, c)
		if err != nil {
			t.Fatal(err)
		}
		return NewEngine(g, e.sch, tix, universe), tix
	}
	bad := uint32(g.SubjectTable().Len() + 100)
	clean, cleanIx := open(b.Columns())
	got, tix := open(damagedText(b.Columns(), bad))

	preds := []Predicate{
		Keyword{Text: "walnut"},
		Keyword{Text: "walnut", Field: "title"},
		Keyword{Text: "greek salad"},
		TermMatch{Term: "walnut", Field: "title"},
		TermMatch{Term: "walnut"},
	}
	for _, p := range preds {
		w, d := p.Eval(clean).Slice(), p.Eval(got).Slice()
		if len(w) == 0 {
			t.Fatalf("%s: empty on the clean image; the case checks nothing", p.Key())
		}
		if !reflect.DeepEqual(d, w) {
			t.Errorf("%s over damaged postings = %v, want %v", p.Key(), d, w)
		}
	}
	if g, w := tix.Search("walnut salad", index.AnyField, 0), cleanIx.Search("walnut salad", index.AnyField, 0); !reflect.DeepEqual(g, w) {
		t.Errorf("Search over damaged postings = %v, want %v", g, w)
	}
	if f := tix.Fields(bad); len(f) != 0 {
		t.Errorf("Fields(%d) = %v, want none", bad, f)
	}
	if c := tix.FieldTermCounts(bad, "title"); c != nil {
		t.Errorf("FieldTermCounts(%d) = %v, want nil", bad, c)
	}
}
