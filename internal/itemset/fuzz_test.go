package itemset

import (
	"slices"
	"testing"
)

// FuzzItemSetOps decodes two sets and an op chain from raw bytes and checks
// every itemset operation against a map-based reference model.
func FuzzItemSetOps(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, []byte{0, 1, 2, 3})
	f.Add([]byte{}, []byte{255, 0, 255}, []byte{2, 0})
	f.Add([]byte{7, 7, 7, 1}, []byte{7}, []byte{1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, araw, braw, ops []byte) {
		decode := func(raw []byte) ([]uint32, mapSet) {
			ids := make([]uint32, 0, len(raw))
			m := make(mapSet, len(raw))
			// Spread consecutive bytes across a wider universe so both the
			// merge and galloping paths get exercised.
			for i, c := range raw {
				id := uint32(c) + uint32(i%5)*256
				ids = append(ids, id)
				m[id] = struct{}{}
			}
			return ids, m
		}
		aids, am := decode(araw)
		bids, bm := decode(braw)
		a, b := FromUnsorted(aids), FromUnsorted(bids)
		sameMembers(t, "decode-a", a, am)
		sameMembers(t, "decode-b", b, bm)

		cur, curM := a, am
		for _, op := range ops {
			switch op % 5 {
			case 0:
				cur, curM = cur.Intersect(b), curM.intersect(bm)
			case 1:
				cur, curM = cur.Union(b), curM.union(bm)
			case 2:
				cur, curM = cur.Minus(b), curM.minus(bm)
			case 3:
				if got, want := cur.IntersectCount(b), len(curM.intersect(bm)); got != want {
					t.Fatalf("IntersectCount = %d, want %d", got, want)
				}
			default:
				bits := NewBits(0)
				bits.AddSlice(cur.Slice())
				bits.AddSlice(b.Slice())
				if bits.Count() != len(curM.union(bm)) {
					t.Fatalf("Bits.Count = %d, want %d", bits.Count(), len(curM.union(bm)))
				}
				cur, curM = bits.Extract(), curM.union(bm)
			}
			sameMembers(t, "op", cur, curM)
			if !slices.Equal(cur.Slice(), FromUnsorted(slices.Clone(cur.Slice())).Slice()) {
				t.Fatal("round-trip through FromUnsorted changed the set")
			}
		}
	})
}
