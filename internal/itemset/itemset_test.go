package itemset

import (
	"math/rand"
	"testing"
)

func setOf(ids ...uint32) Set { return FromUnsorted(append([]uint32{}, ids...)) }

func TestBasics(t *testing.T) {
	s := setOf(5, 1, 3, 3, 1)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	want := []uint32{1, 3, 5}
	got := s.Slice()
	for i, id := range want {
		if got[i] != id {
			t.Fatalf("Items = %v, want %v", got, want)
		}
	}
	for _, id := range want {
		if !s.Has(id) {
			t.Errorf("Has(%d) = false", id)
		}
	}
	for _, id := range []uint32{0, 2, 4, 6, 100} {
		if s.Has(id) {
			t.Errorf("Has(%d) = true", id)
		}
	}
	if !Set.IsEmpty(Set{}) || s.IsEmpty() {
		t.Error("IsEmpty wrong")
	}
}

func TestRankSelect(t *testing.T) {
	s := setOf(10, 20, 30)
	if r := s.Rank(20); r != 1 {
		t.Errorf("Rank(20) = %d, want 1", r)
	}
	if r := s.Rank(25); r != 2 {
		t.Errorf("Rank(25) = %d, want 2", r)
	}
	if r := s.Rank(5); r != 0 {
		t.Errorf("Rank(5) = %d, want 0", r)
	}
	if id, ok := s.Select(2); !ok || id != 30 {
		t.Errorf("Select(2) = %d,%v", id, ok)
	}
	if _, ok := s.Select(3); ok {
		t.Error("Select(3) should be out of range")
	}
	if _, ok := s.Select(-1); ok {
		t.Error("Select(-1) should be out of range")
	}
	// Rank/Select are inverse on valid positions.
	for i := 0; i < s.Len(); i++ {
		id, _ := s.Select(i)
		if s.Rank(id) != i {
			t.Errorf("Rank(Select(%d)) = %d", i, s.Rank(id))
		}
	}
}

func TestForEachStopsEarly(t *testing.T) {
	s := setOf(1, 2, 3, 4)
	n := 0
	s.ForEach(func(uint32) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("ForEach visited %d, want 2", n)
	}
}

func TestBits(t *testing.T) {
	b := NewBits(10)
	if !b.Add(3) || b.Add(3) {
		t.Fatal("Add newness wrong")
	}
	b.Add(900) // beyond universe: must grow
	b.AddSlice([]uint32{0, 64, 63, 64})
	if b.Count() != 5 {
		t.Fatalf("Count = %d, want 5", b.Count())
	}
	if !b.Has(900) || b.Has(899) {
		t.Fatal("Has wrong after grow")
	}
	got := b.Extract().Slice()
	want := []uint32{0, 3, 63, 64, 900}
	if len(got) != len(want) {
		t.Fatalf("Extract = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Extract = %v, want %v", got, want)
		}
	}
	if !NewBits(10).Extract().IsEmpty() {
		t.Fatal("Extract of an empty bitmap not empty")
	}
}

// ---------------------------------------------------------------------------
// Property-based equivalence: itemset operations must agree with the
// reference map-based Set the engine used before the dense-ID refactor,
// over randomized chains of intersect/union/minus.

type mapSet map[uint32]struct{}

func (m mapSet) intersect(o mapSet) mapSet {
	out := make(mapSet)
	for id := range m {
		if _, ok := o[id]; ok {
			out[id] = struct{}{}
		}
	}
	return out
}

func (m mapSet) union(o mapSet) mapSet {
	out := make(mapSet)
	for id := range m {
		out[id] = struct{}{}
	}
	for id := range o {
		out[id] = struct{}{}
	}
	return out
}

func (m mapSet) minus(o mapSet) mapSet {
	out := make(mapSet)
	for id := range m {
		if _, ok := o[id]; !ok {
			out[id] = struct{}{}
		}
	}
	return out
}

func toMap(s Set) mapSet {
	out := make(mapSet, s.Len())
	s.ForEach(func(id uint32) bool { out[id] = struct{}{}; return true })
	return out
}

func sameMembers(t *testing.T, op string, s Set, m mapSet) {
	t.Helper()
	if s.Len() != len(m) {
		t.Fatalf("%s: len %d vs reference %d", op, s.Len(), len(m))
	}
	prev := -1
	for _, id := range s.Slice() {
		if int(id) <= prev {
			t.Fatalf("%s: result not strictly sorted at %d", op, id)
		}
		prev = int(id)
		if _, ok := m[id]; !ok {
			t.Fatalf("%s: extra member %d", op, id)
		}
	}
}

func randomSet(r *rand.Rand, universe int) Set {
	n := r.Intn(universe)
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(r.Intn(universe))
	}
	return FromUnsorted(ids)
}

func TestEquivalenceRandomChains(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		universe := 1 + r.Intn(300)
		s, m := randomSet(r, universe), mapSet(nil)
		m = toMap(s)
		for step := 0; step < 12; step++ {
			o := randomSet(r, universe)
			om := toMap(o)
			switch r.Intn(4) {
			case 0:
				s, m = s.Intersect(o), m.intersect(om)
				if want := len(m); s.Len() != want {
					t.Fatalf("IntersectCount mismatch %d vs %d", s.Len(), want)
				}
			case 1:
				s, m = s.Union(o), m.union(om)
			case 2:
				s, m = s.Minus(o), m.minus(om)
			default:
				// Bits round-trip union.
				b := NewBits(universe)
				b.AddSlice(s.Slice())
				b.AddSlice(o.Slice())
				s, m = b.Extract(), m.union(om)
			}
			sameMembers(t, "chain", s, m)
		}
		// Spot-check scalar ops against the reference.
		for probe := 0; probe < 10; probe++ {
			id := uint32(r.Intn(universe))
			_, want := m[id]
			if s.Has(id) != want {
				t.Fatalf("Has(%d) = %v, reference %v", id, s.Has(id), want)
			}
		}
		o := randomSet(r, universe)
		if got, want := s.IntersectCount(o), len(toMap(s.Intersect(o))); got != want {
			t.Fatalf("IntersectCount = %d, want %d", got, want)
		}
	}
}

func TestIntoVariantsReuseBuffers(t *testing.T) {
	a, b := setOf(1, 2, 3, 4, 5), setOf(2, 4, 6)
	buf := make([]uint32, 0, 16)
	got := IntersectInto(buf, a, b)
	if got.Len() != 2 || !got.Has(2) || !got.Has(4) {
		t.Fatalf("IntersectInto = %v", got.Slice())
	}
	// Reusing the result's backing array must not reallocate for a result
	// that fits.
	got2 := MinusInto(got.Slice()[:0], a, b)
	if got2.Len() != 3 || !got2.Has(1) || !got2.Has(3) || !got2.Has(5) {
		t.Fatalf("MinusInto = %v", got2.Slice())
	}
	u := UnionInto(nil, a, b)
	if u.Len() != 6 {
		t.Fatalf("UnionInto = %v", u.Slice())
	}
}

// TestSkewedIntersect exercises the galloping path (large/small ≥ 16×).
func TestSkewedIntersect(t *testing.T) {
	big := make([]uint32, 0, 4096)
	for i := 0; i < 4096; i++ {
		big = append(big, uint32(i*3))
	}
	large := FromSorted(big)
	small := setOf(0, 3, 4, 3000, 12285, 50000)
	got := large.Intersect(small)
	want := []uint32{0, 3, 3000, 12285}
	if got.Len() != len(want) {
		t.Fatalf("skewed intersect = %v, want %v", got.Slice(), want)
	}
	for i, id := range got.Slice() {
		if id != want[i] {
			t.Fatalf("skewed intersect = %v, want %v", got.Slice(), want)
		}
	}
	if n := large.IntersectCount(small); n != len(want) {
		t.Fatalf("skewed IntersectCount = %d, want %d", n, len(want))
	}
}
