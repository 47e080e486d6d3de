// Package itemset implements the engine's hot set representation: a sorted
// slice of dense uint32 item IDs with allocation-conscious merge-based
// intersection, union and difference, plus a bitmap accumulator for bulk
// unions — the sorted-posting/bitmap hybrid IR engines use in place of
// string-keyed hash-map sets.
//
// Sets are immutable values: operations return new sets (or fill a
// caller-provided buffer via the *Into variants) and never mutate their
// operands. Membership is by binary search with a galloping fast path, so
// intersecting a small posting list against a large collection costs
// O(small × log large) rather than O(small + large).
package itemset

import (
	"math/bits"
	"sort"
)

// Set is an immutable sorted set of dense item IDs. The zero value is the
// empty set.
type Set struct {
	ids []uint32 // strictly increasing
}

// FromSorted wraps a strictly-increasing slice as a set, taking ownership
// of it: the caller must not mutate ids afterwards.
func FromSorted(ids []uint32) Set {
	return Set{ids: ids}
}

// FromUnsorted sorts and deduplicates ids in place and wraps the result,
// taking ownership of the slice.
func FromUnsorted(ids []uint32) Set {
	if len(ids) < 2 {
		return Set{ids: ids}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return Set{ids: out}
}

// Len returns the number of members.
func (s Set) Len() int { return len(s.ids) }

// IsEmpty reports whether the set has no members.
func (s Set) IsEmpty() bool { return len(s.ids) == 0 }

// Slice returns the members in ascending order as a read-only view of the
// set's backing array; callers must not mutate it. Sorted order is free —
// no per-call sort (callers that used to re-sort hash-map set output can
// consume this directly).
//
//magnet:frozen
func (s Set) Slice() []uint32 { return s.ids }

// Buffer surrenders the set's backing array for reuse as scratch: unlike
// Slice, the caller takes ownership and may overwrite it, and must treat
// the set as dead afterwards. It exists for buffer-recycling loops that
// re-slice a spent result to [:0] and feed it back into an *Into
// operation.
func (s Set) Buffer() []uint32 { return s.ids }

// Has reports membership by binary search.
//
//magnet:hot
func (s Set) Has(id uint32) bool {
	i := searchIDs(s.ids, id)
	return i < len(s.ids) && s.ids[i] == id
}

// Rank returns the number of members strictly less than id (the position
// id would occupy).
func (s Set) Rank(id uint32) int { return searchIDs(s.ids, id) }

// Select returns the i-th smallest member and whether i is in range.
func (s Set) Select(i int) (uint32, bool) {
	if i < 0 || i >= len(s.ids) {
		return 0, false
	}
	return s.ids[i], true
}

// ForEach calls f on each member in ascending order until f returns false.
func (s Set) ForEach(f func(uint32) bool) {
	for _, id := range s.ids {
		if !f(id) {
			return
		}
	}
}

// searchIDs is sort.Search specialised to uint32 slices (no closure
// allocation, inlinable).
func searchIDs(ids []uint32, id uint32) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallop finds the insertion point of id in ids[from:] by exponential probing
// followed by binary search — O(log distance) instead of O(log n), which
// makes skewed intersections O(small × log(large/small)).
func gallop(ids []uint32, from int, id uint32) int {
	bound := 1
	for from+bound < len(ids) && ids[from+bound] < id {
		bound <<= 1
	}
	hi := from + bound
	if hi > len(ids) {
		hi = len(ids)
	}
	lo := from + bound>>1
	return lo + searchIDs(ids[lo:hi], id)
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set { return IntersectInto(nil, s, t) }

// IntersectInto computes a ∩ b into dst's backing array (grown as needed),
// returning the result set. dst may be nil; passing a previous result's
// Buffer() reuses its allocation.
//
//magnet:hot
func IntersectInto(dst []uint32, a, b Set) Set {
	x, y := a.ids, b.ids
	if len(x) > len(y) {
		x, y = y, x
	}
	dst = dst[:0]
	if len(x) == 0 {
		return Set{ids: dst}
	}
	// Skewed sizes: gallop through the large side.
	if len(y) >= 16*len(x) {
		j := 0
		for _, id := range x {
			j = gallop(y, j, id)
			if j >= len(y) {
				break
			}
			if y[j] == id {
				dst = append(dst, id)
				j++
			}
		}
		return Set{ids: dst}
	}
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		xi, yj := x[i], y[j]
		switch {
		case xi == yj:
			dst = append(dst, xi)
			i++
			j++
		case xi < yj:
			i++
		default:
			j++
		}
	}
	return Set{ids: dst}
}

// IntersectCount returns |s ∩ t| without materializing the intersection.
//
//magnet:hot
func (s Set) IntersectCount(t Set) int {
	x, y := s.ids, t.ids
	if len(x) > len(y) {
		x, y = y, x
	}
	n := 0
	if len(y) >= 16*len(x) {
		j := 0
		for _, id := range x {
			j = gallop(y, j, id)
			if j >= len(y) {
				break
			}
			if y[j] == id {
				n++
				j++
			}
		}
		return n
	}
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] == y[j]:
			n++
			i++
			j++
		case x[i] < y[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set { return UnionInto(nil, s, t) }

// UnionInto computes a ∪ b into dst's backing array (grown as needed). dst
// must not alias either operand's backing array.
//
//magnet:hot
func UnionInto(dst []uint32, a, b Set) Set {
	x, y := a.ids, b.ids
	dst = dst[:0]
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		xi, yj := x[i], y[j]
		switch {
		case xi == yj:
			dst = append(dst, xi)
			i++
			j++
		case xi < yj:
			dst = append(dst, xi)
			i++
		default:
			dst = append(dst, yj)
			j++
		}
	}
	dst = append(dst, x[i:]...)
	dst = append(dst, y[j:]...)
	return Set{ids: dst}
}

// Minus returns s \ t.
func (s Set) Minus(t Set) Set { return MinusInto(nil, s, t) }

// MinusInto computes a \ b into dst's backing array (grown as needed). dst
// must not alias either operand's backing array.
//
//magnet:hot
func MinusInto(dst []uint32, a, b Set) Set {
	x, y := a.ids, b.ids
	dst = dst[:0]
	if len(y) == 0 {
		dst = append(dst, x...)
		return Set{ids: dst}
	}
	j := 0
	for _, id := range x {
		j = gallop(y, j, id)
		if j < len(y) && y[j] == id {
			continue
		}
		dst = append(dst, id)
	}
	return Set{ids: dst}
}

// Bits is a mutable bitmap over the dense ID universe — the accumulator
// half of the hybrid. Use it to union many posting lists (disjunctions,
// multi-value probes, frontier expansion) in O(total postings) with no
// merge churn, then Extract the sorted result.
type Bits struct {
	words []uint64
	n     int
}

// NewBits returns a bitmap sized for IDs in [0, universe); it grows
// automatically if larger IDs are added.
func NewBits(universe int) *Bits {
	if universe < 0 {
		universe = 0
	}
	return &Bits{words: make([]uint64, (universe+63)/64)}
}

func (b *Bits) grow(id uint32) {
	need := int(id)/64 + 1
	if need <= len(b.words) {
		return
	}
	words := make([]uint64, need+need/2)
	copy(words, b.words)
	b.words = words
}

// Add inserts id, reporting whether it was new.
func (b *Bits) Add(id uint32) bool {
	b.grow(id)
	w, mask := id/64, uint64(1)<<(id%64)
	if b.words[w]&mask != 0 {
		return false
	}
	b.words[w] |= mask
	b.n++
	return true
}

// AddSlice inserts every ID of a sorted or unsorted slice.
func (b *Bits) AddSlice(ids []uint32) {
	for _, id := range ids {
		b.Add(id)
	}
}

// AddSliceBelow inserts the IDs of ids below n and skips the rest: the
// union form for postings read from a columnar image, where a damaged ID
// beyond the universe must read as absent instead of growing the bitmap.
func (b *Bits) AddSliceBelow(ids []uint32, n int) {
	for _, id := range ids {
		if int(id) < n {
			b.Add(id)
		}
	}
}

// Has reports membership; IDs beyond the universe are absent.
func (b *Bits) Has(id uint32) bool {
	w := int(id) / 64
	return w < len(b.words) && b.words[w]&(uint64(1)<<(id%64)) != 0
}

// Count returns the number of set bits.
func (b *Bits) Count() int { return b.n }

// Extract returns the members as a sorted Set (fresh allocation) — bit
// order is ID order, so the result is sorted for free.
func (b *Bits) Extract() Set {
	if b.n == 0 {
		return Set{}
	}
	out := make([]uint32, 0, b.n)
	for w, word := range b.words {
		for word != 0 {
			out = append(out, uint32(w*64)+uint32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return Set{ids: out}
}
