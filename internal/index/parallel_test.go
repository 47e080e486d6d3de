package index

import (
	"fmt"
	"reflect"
	"testing"

	"magnet/internal/itemset"
	"magnet/internal/par"
)

// tieStore builds a store whose similarity scan produces many exact score
// ties: blocks of documents share identical term vectors, so only the
// ID tie-break orders them. Chunk boundaries fall inside blocks, which is
// exactly where a schedule-dependent merge would go wrong.
func tieStore(ndocs int, pool *par.Pool) *VectorStore {
	b := NewVectorBuilder()
	for i := 0; i < ndocs; i++ {
		block := i / 7 % 5
		b.Add(uint32(i), map[string]float64{
			"common":                  1,
			fmt.Sprintf("b%d", block): 2,
		})
	}
	return b.Freeze(pool)
}

// TestSimilarToSerialParallelEquivalence checks top-k lists are identical
// at every pool width, across k values that cut through tie blocks.
func TestSimilarToSerialParallelEquivalence(t *testing.T) {
	serialStore := tieStore(500, nil)
	for _, k := range []int{1, 3, 10, 50, 499, 1000} {
		want := serialStore.SimilarToDoc(0, k)
		for _, width := range []int{1, 2, 4, 8} {
			pool := par.New(width)
			v := tieStore(500, pool)
			got := v.SimilarToDoc(0, k)
			pool.Close()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d width=%d: top-k differs\n got %v\nwant %v", k, width, got, want)
			}
		}
	}
}

// TestSimilarToParallelOnSharedStore checks repeated pooled scans on one
// store instance match the serial scan of the same image.
func TestSimilarToParallelOnSharedStore(t *testing.T) {
	want := tieStore(300, nil).SimilarToDoc(42, 25)
	pool := par.New(8)
	defer pool.Close()
	v := tieStore(300, pool)
	for round := 0; round < 10; round++ {
		if got := v.SimilarToDoc(42, 25); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: parallel scan differs\n got %v\nwant %v", round, got, want)
		}
	}
}

// TestCentroidBitIdentical checks the centroid is bit-for-bit identical
// at every pool width — the fixed chunk shape makes the float reduction
// order independent of schedule — on collections both under and well over
// one chunk.
func TestCentroidBitIdentical(t *testing.T) {
	for _, ndocs := range []int{10, 256, 257, 700} {
		v := tieStore(ndocs, nil)
		ids := itemset.FromSorted(v.docIDs())
		want := v.Centroid(ids)
		for _, width := range []int{1, 4, 8} {
			pool := par.New(width)
			got := tieStore(ndocs, pool).Centroid(ids)
			pool.Close()
			if len(got) != len(want) {
				t.Fatalf("ndocs=%d width=%d: term sets differ", ndocs, width)
			}
			for term, w := range want {
				if got[term] != w {
					t.Fatalf("ndocs=%d width=%d: centroid[%q] = %v, want %v (bit-exact)", ndocs, width, term, got[term], w)
				}
			}
		}
	}
}
