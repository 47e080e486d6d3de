// Package ids implements the dense-ID plane of the navigation engine:
// string-shaped resource identifiers (rdf.IRI, text-index document IDs,
// vector-space coordinate keys) map to dense uint32 item IDs and back. An
// append-only Interner assigns the IDs while a store is built; the frozen
// Table compiled from it serves every read afterwards.
//
// Dense integer IDs are the representation IR systems actually use for hot
// set algebra — sorted postings and bitmaps over document numbers instead
// of string-keyed hash maps. Every layer of the engine (graph reverse
// index, query sets, facet histograms, vector postings) speaks these IDs
// natively and only rehydrates the original identifiers at the render
// boundary. See DESIGN.md's "ID plane" section for the invariants.
//
// The package is generic over any ~string key so the graph can intern
// rdf.IRI while the indexes intern plain strings without conversions.
package ids

import (
	"sort"
	"sync"
)

// Interner assigns dense uint32 IDs to keys, append-only: a key's ID never
// changes and IDs are never reused, so slices indexed by ID stay valid
// across later interning. It is the build side of a key table: stores
// intern while they are built, then Columns compiles the interner into the
// frozen Table their readers serve from.
//
// Interner is safe for concurrent use: lookups and rehydration may race
// with interning.
type Interner[K ~string] struct {
	mu   sync.RWMutex
	ids  map[K]uint32 // key → dense ID; guarded by mu
	keys []K          // dense ID → key; guarded by mu
}

// Columns is the serialized form of a key table: the dense-ID→key table as
// an offset/blob string column plus a permutation of IDs sorted by key
// bytes (the binary-search index Table.Lookup uses). Key i spans
// Blob[Off[i]:Off[i+1]]; len(Off) is one more than the key count.
type Columns struct {
	Off    []uint32
	Blob   []byte
	Sorted []uint32
}

// NewInterner returns an empty interner.
func NewInterner[K ~string]() *Interner[K] {
	return &Interner[K]{ids: make(map[K]uint32)}
}

// Columns compiles the interner into its serialized form (the input of
// FromColumns). The sorted permutation is computed here, O(n log n).
func (in *Interner[K]) Columns() Columns {
	in.mu.RLock()
	defer in.mu.RUnlock()
	var c Columns
	c.Off = make([]uint32, 1, len(in.keys)+1)
	size := 0
	for _, k := range in.keys {
		size += len(k)
	}
	c.Blob = make([]byte, 0, size)
	for _, k := range in.keys {
		c.Blob = append(c.Blob, k...)
		c.Off = append(c.Off, uint32(len(c.Blob)))
	}
	c.Sorted = sortedPerm(len(in.keys), func(i, j int) bool { return in.keys[i] < in.keys[j] })
	return c
}

// Intern returns the dense ID of k, assigning the next free ID when k is
// new.
func (in *Interner[K]) Intern(k K) uint32 {
	in.mu.RLock()
	id, ok := in.ids[k]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[k]; ok {
		return id
	}
	id = uint32(len(in.keys))
	in.ids[k] = id
	in.keys = append(in.keys, k)
	return id
}

// Lookup returns the ID of k without interning, and whether k is known.
func (in *Interner[K]) Lookup(k K) (uint32, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	id, ok := in.ids[k]
	return id, ok
}

// Key returns the key behind a dense ID. IDs must come from this interner;
// unknown IDs return the zero key.
func (in *Interner[K]) Key(id uint32) K {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if int(id) >= len(in.keys) {
		var zero K
		return zero
	}
	return in.keys[id]
}

// Len returns the number of interned keys; valid IDs are [0, Len).
func (in *Interner[K]) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.keys)
}

// sortedPerm returns 0..n-1 sorted by less (build-side only).
func sortedPerm(n int, less func(i, j int) bool) []uint32 {
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	sort.Slice(perm, func(a, b int) bool { return less(int(perm[a]), int(perm[b])) })
	return perm
}
