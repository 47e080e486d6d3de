package ids

import (
	"fmt"
	"sync"
)

// Run bounds run i of an offset column, [start[i], start[i+1]), against the
// length of the column it indexes. Corrupt offsets give an empty run, so a
// damaged image reads as absent data rather than panicking.
//
//magnet:hot
func Run(start []uint32, i, backing int) (int, int) {
	if i < 0 || i+1 >= len(start) {
		return 0, 0
	}
	lo, hi := int(start[i]), int(start[i+1])
	if lo > hi || hi > backing {
		return 0, 0
	}
	return lo, hi
}

// Strings is a read-only offset/blob string table: entry i spans
// blob[off[i]:off[i+1]]. Entries are returned and compared as substrings
// of one string, made from the blob on first use — never at open, so
// opening stays O(1), and never per call, so reads do not allocate.
type Strings struct {
	off  []uint32
	blob []byte
	once sync.Once
	s    string
}

// NewStrings returns the table over off and blob (typically slices into a
// mapped segment, which the table copies once, lazily).
func NewStrings(off []uint32, blob []byte) *Strings {
	return &Strings{off: off, blob: blob}
}

// Len returns the number of entries.
func (t *Strings) Len() int {
	if len(t.off) == 0 {
		return 0
	}
	return len(t.off) - 1
}

func (t *Strings) load() { t.s = string(t.blob) }

// At returns entry i; empty when i is out of range or its offsets are
// corrupt.
//
//magnet:hot
func (t *Strings) At(i int) string {
	t.once.Do(t.load)
	lo, hi := Run(t.off, i, len(t.s))
	return t.s[lo:hi]
}

// Find binary-searches a table sorted by entry for key and returns its
// index.
//
//magnet:hot
func (t *Strings) Find(key string) (int, bool) {
	n := t.Len()
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.At(mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n && t.At(lo) == key {
		return lo, true
	}
	return 0, false
}

// Table is the frozen key table compiled from an Interner: dense ID → key
// by slicing one string, key → dense ID by binary search over the sorted
// permutation. It never changes, so it takes no locks.
type Table[K ~string] struct {
	keys   *Strings
	sorted []uint32
}

// FromColumns returns the table over serialized columns (an Interner's
// Columns, or slices into a mapped segment). Construction is O(1): only the
// frames are checked; keys are read lazily.
func FromColumns[K ~string](c Columns) (*Table[K], error) {
	if len(c.Off) == 0 {
		return nil, fmt.Errorf("ids: columns missing offset table")
	}
	n := len(c.Off) - 1
	if len(c.Sorted) != n {
		return nil, fmt.Errorf("ids: sorted permutation has %d entries for %d keys", len(c.Sorted), n)
	}
	if c.Off[0] != 0 || int(c.Off[n]) != len(c.Blob) {
		return nil, fmt.Errorf("ids: offset table does not span blob (%d..%d of %d bytes)", c.Off[0], c.Off[n], len(c.Blob))
	}
	return &Table[K]{keys: NewStrings(c.Off, c.Blob), sorted: c.Sorted}, nil
}

// Len returns the number of keys; valid IDs are [0, Len).
func (t *Table[K]) Len() int { return t.keys.Len() }

// Key returns the key behind a dense ID; the zero key for unknown IDs.
//
//magnet:hot
func (t *Table[K]) Key(id uint32) K { return K(t.keys.At(int(id))) }

// Lookup returns the ID of k and whether the table holds it.
//
//magnet:hot
func (t *Table[K]) Lookup(k K) (uint32, bool) {
	sorted := t.sorted
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.keys.At(int(sorted[mid])) < string(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(sorted) && int(sorted[lo]) < t.Len() && t.keys.At(int(sorted[lo])) == string(k) {
		return sorted[lo], true
	}
	return 0, false
}

// AppendKeys rehydrates every ID in order, appending the keys to dst and
// skipping unknown IDs (the bulk form render boundaries use).
//
//magnet:hot
func (t *Table[K]) AppendKeys(dst []K, ids []uint32) []K {
	n := uint32(t.Len())
	for _, id := range ids {
		if id < n {
			dst = append(dst, K(t.keys.At(int(id))))
		}
	}
	return dst
}
