package index

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"magnet/internal/itemset"
)

// tieStore builds a store whose similarity scan produces many exact score
// ties: blocks of documents (IDs 0..ndocs-1) share identical term vectors,
// so only the ID tie-break orders them.
func tieStore(ndocs int) *VectorStore {
	b := NewVectorBuilder()
	for i := 0; i < ndocs; i++ {
		block := i / 7 % 5
		b.addFreqs(uint32(i), map[string]float64{
			"common":                  1,
			fmt.Sprintf("b%d", block): 2,
		})
	}
	return b.Freeze()
}

// spreadStore builds a store of ndocs documents (IDs 0..ndocs-1) whose
// weights differ from document to document, so the order of a centroid's
// float additions shows in its bits.
func spreadStore(ndocs int) *VectorStore {
	b := NewVectorBuilder()
	for i := 0; i < ndocs; i++ {
		b.addFreqs(uint32(i), map[string]float64{
			"common":                    float64(1 + i%3),
			fmt.Sprintf("b%d", i%5):     float64(2 + i%11),
			fmt.Sprintf("t%d", i%13):    float64(1 + i%7),
			fmt.Sprintf("u%d", i/100%4): 1,
		})
	}
	return b.Freeze()
}

// tieSearches are similarity searches on a tie store of n documents, each
// cutting through tie blocks at its k, with the reference's answer: every
// k for SimilarToDoc(0), and Nearest on block 0's centroid excluding the
// block's first members (a posting walk) or every row but a few from
// blocks 0 and 1 (a row scan).
func tieSearches(v *VectorStore, n int) (run []func() []Scored, want [][]Scored) {
	for _, k := range []int{1, 3, 10, 50, n - 1, 2 * n} {
		run = append(run, func() []Scored { return v.SimilarToDoc(0, k) })
		want = append(want, refSimilarTo(v, v.vector(0), k, map[uint32]bool{0: true}))
	}
	members := itemset.FromSorted([]uint32{0, 1, 2})
	cen := v.Centroid(members)
	var keep []uint32
	for id := uint32(0); int(id) < n; id++ {
		if id%70 <= 8 {
			keep = append(keep, id)
		}
	}
	rest, restSet := excludeAllBut(v, keep)
	for _, k := range []int{2, 5, 30} {
		run = append(run, func() []Scored { return v.Nearest(cen, k, members) })
		want = append(want, refSimilarTo(v, v.centroidVector(members), k, map[uint32]bool{0: true, 1: true, 2: true}))
		run = append(run, func() []Scored { return v.Nearest(cen, k, rest) })
		want = append(want, refSimilarTo(v, v.centroidVector(members), k, restSet))
	}
	return run, want
}

// TestSimilarToTieBlockCuts checks top-k lists against the reference where
// k cuts through blocks of exactly tied scores, so only the ID tie-break
// orders the cut, on both the posting walk and the row scan.
func TestSimilarToTieBlockCuts(t *testing.T) {
	v := tieStore(500)
	run, want := tieSearches(v, 500)
	for i := range run {
		sameScored(t, fmt.Sprintf("search %d", i), run[i](), want[i])
	}
}

// TestSimilarToParallelOnSharedStore runs the tie searches from several
// goroutines on one store at once, so the race detector checks the
// recycled score arrays and scratch vectors they share, and every result
// must still match the reference.
func TestSimilarToParallelOnSharedStore(t *testing.T) {
	v := tieStore(300)
	run, want := tieSearches(v, 300)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for i := range run {
					j := (i + g) % len(run)
					if got := run[j](); !reflect.DeepEqual(got, want[j]) {
						errs <- fmt.Sprintf("goroutine %d round %d: search %d = %v, want %v", g, round, j, got, want[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestCentroidBitIdentical checks the centroid bit for bit against the
// chunked map reference (refCentroid), on collections under, at and over one chunk,
// whose members' weights differ, so a different float association (a
// plain running sum, or partials added out of chunk order) changes bits.
func TestCentroidBitIdentical(t *testing.T) {
	for _, ndocs := range []int{10, 256, 257, 700} {
		v := spreadStore(ndocs)
		ids := make([]uint32, ndocs)
		for i := range ids {
			ids[i] = uint32(i)
		}
		got := v.centroidVector(itemset.FromSorted(ids))
		want := refCentroid(v, ids)
		if len(got) != len(want) {
			t.Fatalf("ndocs=%d: %d terms, want %d", ndocs, len(got), len(want))
		}
		for term, w := range want {
			if math.Float64bits(got[term]) != math.Float64bits(w) {
				t.Fatalf("ndocs=%d: centroid[%q] = %v, want %v (bit-exact)", ndocs, term, got[term], w)
			}
		}
	}
}
