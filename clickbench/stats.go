package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p99 over fewer than 1,000 clicks would be the maximum, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted,
// and refuses when fewer than minBeyond samples lie above it.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %.2f of %d samples: out of range", q, n)
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if beyond := n - 1 - i; beyond < minBeyond {
		return 0, fmt.Errorf("percentile %.2f of %d samples: only %d samples beyond it, need %d",
			q, n, beyond, minBeyond)
	}
	return sorted[i], nil
}

// median returns the median of xs (the mean of the middle pair for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
