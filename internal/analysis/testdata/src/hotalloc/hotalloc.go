// Package hotalloc exercises the interprocedural allocation lint: functions
// reachable from a //magnet:hot seed must not allocate.
package hotalloc

import "fmt"

// Merge is a hot seed; it and everything it calls are checked.
//
//magnet:hot
func Merge(dst, xs []uint32) []uint32 {
	dst = growInto(dst, xs)
	_ = total(xs)
	return dst
}

// growInto appends into the caller's buffer — the sanctioned amortization
// pattern; appending to a parameter-rooted slice is not a finding.
func growInto(dst, xs []uint32) []uint32 {
	for _, x := range xs {
		dst = append(dst, x)
	}
	return dst
}

// total is reached transitively from Merge and is clean.
func total(xs []uint32) int {
	n := 0
	for _, x := range xs {
		n += int(x)
	}
	return n
}

// BadClosure captures a local in a function literal on a hot path.
//
//magnet:hot
func BadClosure(xs []uint32) int {
	sum := 0
	walk(xs, func(x uint32) { sum += int(x) }) // want "captures sum"
	return sum
}

// OkClosure passes a non-capturing literal: no heap allocation.
//
//magnet:hot
func OkClosure(xs []uint32) {
	walk(xs, func(x uint32) {})
}

func walk(xs []uint32, f func(uint32)) {
	for _, x := range xs {
		f(x)
	}
}

// Entry allocates two calls deep; the diagnostic names the chain.
//
//magnet:hot
func Entry(xs []uint32) []uint32 {
	return viaHelper(xs)
}

func viaHelper(xs []uint32) []uint32 {
	out := make([]uint32, len(xs)) // want "hotalloc.Entry → hotalloc.viaHelper"
	copy(out, xs)
	return out
}

// BadAppend grows a local slice instead of a caller-provided buffer.
//
//magnet:hot
func BadAppend(xs []uint32) []uint32 {
	var out []uint32
	for _, x := range xs {
		out = append(out, x) // want "take a caller-provided buffer"
	}
	return out
}

// BadFmt formats on the hot path.
//
//magnet:hot
func BadFmt(x uint32) string {
	return fmt.Sprintf("%d", x) // want "call to fmt.Sprintf allocates"
}

// BadConcat builds a string on the hot path.
//
//magnet:hot
func BadConcat(a, b string) string {
	return a + b // want "string concatenation allocates"
}

// BadBox passes a concrete integer to an interface parameter.
//
//magnet:hot
func BadBox(x int) {
	sink(x) // want "boxes int into"
}

// OkBox passes a pointer: pointer-shaped values are stored directly in the
// interface word and do not allocate.
//
//magnet:hot
func OkBox(p *int) {
	sink(p)
}

func sink(v interface{}) { _ = v }

// keyer stands in for query.Predicate: an interface whose Key() builds a
// string per call.
type keyer interface{ Key() string }

// BadLoopDispatch re-derives k.Key() against every element — the
// per-refine allocation storm Query.With used to hide (the dispatch
// never resolves statically, so only the loop rule sees it).
//
//magnet:hot
func BadLoopDispatch(keys []string, k keyer) int {
	for i, s := range keys {
		if s == k.Key() { // want "called inside a loop dispatches dynamically"
			return i
		}
	}
	return -1
}

// OkHoistedDispatch derives the key once and loops over plain strings.
//
//magnet:hot
func OkHoistedDispatch(keys []string, k keyer) int {
	kk := k.Key()
	for i, s := range keys {
		if s == kk {
			return i
		}
	}
	return -1
}

// TransitiveLoopDispatch is *reached* from a seed but not annotated
// itself: the loop rule is scoped to direct seeds (hoisting is the
// caller's local discipline), so this body is not flagged for dispatch —
// only direct allocations would be.
func transitiveLoopDispatch(keys []string, k keyer) bool {
	for _, s := range keys {
		if s == k.Key() {
			return true
		}
	}
	return false
}

// SeedCallingTransitive seeds reachability into transitiveLoopDispatch.
//
//magnet:hot
func SeedCallingTransitive(keys []string, k keyer) bool {
	return transitiveLoopDispatch(keys, k)
}

// Cold allocates freely: it is not reachable from any hot seed.
func Cold(xs []uint32) map[uint32]bool {
	out := make(map[uint32]bool, len(xs))
	for _, x := range xs {
		out[x] = true
	}
	return out
}

// GenericKey converts to a type parameter constrained to ~string: a plain
// value conversion, never boxing.
//
//magnet:hot
func GenericKey[K ~string](s string) K {
	return K(s)
}

// BadBytesToString copies the bytes into a new string on every call.
//
//magnet:hot
func BadBytesToString(b []byte) string {
	return string(b) // want "conversion from []byte to string copies into a new allocation"
}

// BadReturnBox boxes its int result into an interface on every call.
//
//magnet:hot
func BadReturnBox(n int) any {
	return n // want "return boxes int into any"
}
