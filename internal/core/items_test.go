package core

import (
	"reflect"
	"testing"

	"magnet/internal/rdf"
)

// TestChooseItemsSkipsDamagedPostingIDs unions the class postings of an
// image whose every posting carries an ID past the subject table: the
// damaged ID reads as absent instead of joining the item universe.
func TestChooseItemsSkipsDamagedPostingIDs(t *testing.T) {
	b := rdf.NewBuilder()
	b.Add("urn:x:a", rdf.Type, rdf.IRI("urn:x:Recipe"))
	b.Add("urn:x:b", rdf.Type, rdf.IRI("urn:x:Menu"))
	b.Add("urn:x:c", rdf.Label, rdf.NewString("untyped"))
	c := b.Columns()
	bad := uint32(len(c.Subj.Sorted) + 100)
	post := make([]uint32, 0, len(c.PosPost)+len(c.PosValTerm))
	start := []uint32{0}
	for v := 0; v+1 < len(c.PosPostStart); v++ {
		post = append(post, c.PosPost[c.PosPostStart[v]:c.PosPostStart[v+1]]...)
		post = append(post, bad)
		start = append(start, uint32(len(post)))
	}
	c.PosPost, c.PosPostStart = post, start
	g, err := rdf.FromColumns(c)
	if err != nil {
		t.Fatal(err)
	}
	var want []uint32
	for _, s := range []rdf.IRI{"urn:x:a", "urn:x:b"} {
		id, _ := g.SubjectTable().Lookup(s)
		want = append(want, id)
	}
	if got := chooseItems(g, false).Slice(); !reflect.DeepEqual(got, want) {
		t.Fatalf("item IDs over damaged postings = %v, want %v", got, want)
	}
}
