// Package mapiter is a magnet-vet fixture: each violation line carries an
// expectation comment, allowed patterns carry none.
package mapiter

import "sort"

func unsorted(m map[string]int) []string {
	var out []string
	for k := range m { // want "without a later sort"
		out = append(out, k)
	}
	return out
}

// sorting after the loop is the allowed pattern.
func sorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// delegating to a sorting helper also counts.
func viaHelper(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sortKeys(out)
	return out
}

func sortKeys(ss []string) { sort.Strings(ss) }

// map-to-map aggregation does not leak iteration order.
func aggregate(m map[string][]string) map[string]int {
	counts := make(map[string]int)
	for k, vs := range m {
		counts[k] = len(vs)
	}
	return counts
}

// ranging over a slice needs no sort.
func overSlice(ss []string) []string {
	var out []string
	for _, s := range ss {
		out = append(out, s)
	}
	return out
}

// summing floats in map order makes the low bits vary run to run.
func floatSum(m map[string]float64) float64 {
	var s float64
	for _, w := range m {
		s += w * w // want "summed in map iteration order"
	}
	return s
}

// the rule follows nested loops: the outer map order still decides.
func nestedFloatSum(m map[string][]float64) float64 {
	var s float64
	for _, ws := range m {
		for _, w := range ws {
			s -= w // want "summed in map iteration order"
		}
	}
	return s
}

// a sum under two nested map ranges is reported once.
func doublyNested(m map[string]map[string]float64) float64 {
	var s float64
	for _, inner := range m {
		for _, w := range inner {
			s += w // want "summed in map iteration order"
		}
	}
	return s
}

// integer sums are exact in any order.
func intSum(m map[string]int) int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}

// a float declared inside the loop body is summed within one iteration.
func perEntry(m map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, ws := range m {
		var s float64
		for _, w := range ws {
			s += w
		}
		out[k] = s
	}
	return out
}

// summing over sorted keys is the allowed pattern.
func sortedFloatSum(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var s float64
	for _, k := range keys {
		s += m[k]
	}
	return s
}
