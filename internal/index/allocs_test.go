//go:build !race

package index

import (
	"testing"

	"magnet/internal/itemset"
)

// The race detector makes sync.Pool drop recycled values at random, so
// allocation counts are only meaningful without it.

// TestCentroidAllocsFlat checks a centroid's allocations do not grow with
// its chunk count: every chunk sums into one recycled accumulator, so a
// three-chunk collection allocates what a two-chunk one does.
func TestCentroidAllocsFlat(t *testing.T) {
	v := spreadStore(700)
	ids := make([]uint32, 700)
	for i := range ids {
		ids[i] = uint32(i)
	}
	allocs := func(n int) float64 {
		members := itemset.FromSorted(ids[:n])
		return testing.AllocsPerRun(50, func() { v.Centroid(members) })
	}
	if two, three := allocs(257), allocs(700); three != two {
		t.Errorf("Centroid allocations: %v for 700 members (three chunks), %v for 257 (two chunks); want equal", three, two)
	}
}
