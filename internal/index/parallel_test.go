package index

import (
	"fmt"
	"reflect"
	"testing"

	"magnet/internal/par"
)

// tieStore builds a store whose similarity scan produces many exact score
// ties: blocks of documents share identical term vectors, so only the
// ID tie-break orders them. Chunk boundaries fall inside blocks, which is
// exactly where a schedule-dependent merge would go wrong.
func tieStore(ndocs int) *VectorStore {
	b := NewVectorBuilder()
	for i := 0; i < ndocs; i++ {
		block := i / 7 % 5
		b.Add(fmt.Sprintf("doc%04d", i), map[string]float64{
			"common":                  1,
			fmt.Sprintf("b%d", block): 2,
		})
	}
	return b.Freeze()
}

// TestSimilarToSerialParallelEquivalence checks top-k lists are identical
// at every pool width, across k values that cut through tie blocks.
func TestSimilarToSerialParallelEquivalence(t *testing.T) {
	serialStore := tieStore(500)
	query := serialStore.Vector("doc0000")
	exclude := []string{"doc0000"}
	for _, k := range []int{1, 3, 10, 50, 499, 1000} {
		want := serialStore.SimilarTo(query, k, exclude)
		for _, width := range []int{1, 2, 4, 8} {
			v := tieStore(500)
			pool := par.New(width)
			v.SetPool(pool)
			got := v.SimilarTo(v.Vector("doc0000"), k, exclude)
			pool.Close()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d width=%d: top-k differs\n got %v\nwant %v", k, width, got, want)
			}
		}
	}
}

// TestSimilarToParallelOnSharedStore checks the pooled scan on one store
// instance matches its own serial scan (pool detached), covering the
// warm-cache path.
func TestSimilarToParallelOnSharedStore(t *testing.T) {
	v := tieStore(300)
	query := v.Vector("doc0042")
	want := v.SimilarTo(query, 25, nil)
	pool := par.New(8)
	defer pool.Close()
	v.SetPool(pool)
	for round := 0; round < 10; round++ {
		if got := v.SimilarTo(query, 25, nil); !reflect.DeepEqual(got, want) {
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
		v := tieStore(ndocs)
		ids := v.IDs()
		want := v.Centroid(ids)
		for _, width := range []int{1, 4, 8} {
			pool := par.New(width)
			v.SetPool(pool)
			got := v.Centroid(ids)
			pool.Close()
			v.SetPool(nil)
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
