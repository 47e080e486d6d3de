package query

import (
	"reflect"
	"testing"

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
		w, g := p.Eval(want).IDs().Slice(), p.Eval(got).IDs().Slice()
		if len(w) == 0 {
			t.Fatalf("%s: empty on the clean image; the case checks nothing", p.Key())
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s over damaged postings = %v, want %v", p.Key(), g, w)
		}
	}
}
