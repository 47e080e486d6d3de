// Package frozen exercises publish-then-freeze checking: slices flowing
// out of //magnet:frozen producers and fields must never be written again.
package frozen

import "sort"

type store struct {
	// postings are copy-on-write: replace whole entries, never mutate.
	//
	//magnet:frozen
	postings map[string][]uint32

	all []uint32 //magnet:frozen
}

// view publishes a posting read-only.
//
//magnet:frozen
func (s *store) view(k string) []uint32 {
	return s.postings[k]
}

// wrap returns the published slice verbatim — it becomes a publish point
// itself, so mutation through it is still caught.
func wrap(s *store, k string) []uint32 {
	return s.view(k)
}

func mutateDirect(s *store, k string) {
	v := s.view(k)
	v[0] = 1 // want "index assignment writes into a slice published by frozen.store.view"
}

func mutateAppend(s *store) []uint32 {
	return append(s.all, 9) // want "append may write into the backing array of a slice published by frozen.store.all"
}

func mutateViaWrap(s *store, k string) {
	w := wrap(s, k)
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] }) // want "in-place sort.Slice of a slice published by frozen.store.view"
}

// fill writes through its first parameter; the derived mutates-params fact
// makes passing a frozen slice to it a finding at the call site.
func fill(dst []uint32, v uint32) {
	for i := range dst {
		dst[i] = v
	}
}

func mutateViaCall(s *store) {
	fill(s.all, 0) // want "which mutates it"
}

// replace is the sanctioned copy-on-write path: build a fresh slice and
// swap the map entry. Nothing here is a finding.
func replace(s *store, k string, v uint32) {
	old := s.postings[k]
	next := make([]uint32, len(old), len(old)+1)
	copy(next, old)
	next = append(next, v)
	s.postings[k] = next
}

// reads of published slices are always fine.
func read(s *store, k string) uint32 {
	var n uint32
	for _, v := range s.view(k) {
		n += v
	}
	return n
}

// image is a columnar image: every column of the frozen field is frozen.
type image struct {
	cols []uint32
}

type reader struct {
	//magnet:frozen
	img image
}

func mutateColumn(r *reader) {
	r.img.cols[0] = 1 // want "index assignment writes into a slice published by frozen.reader.img"
}
