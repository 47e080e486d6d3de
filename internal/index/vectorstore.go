// Package index implements the vector-space database Magnet stores item
// vectors in, plus a field-aware inverted text index for keyword queries.
// The paper (§5.2) used Lucene for this role: "an appropriate vector is
// built for each item, and stored in a vector-space database (the Lucene
// text search engine is used for this purpose)". This package reproduces
// the needed subset from scratch: postings lists, document frequencies,
// tf·idf weighting with the paper's exact formula, unit-length
// normalization, dot-product similarity, and ranked retrieval.
package index

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"magnet/internal/ids"
	"magnet/internal/itemset"
	"magnet/internal/obs"
)

// Vector-store observability: similarity retrieval timing, and the work
// each search does — the posting or row elements it reads, added once per
// search (tests pin it exactly).
var (
	vectorSearchObs = opObs{obs.NewCounter("index.vector.search.count"), obs.NewHistogram("index.vector.search.ns")}
	searchElems     = obs.NewCounter("index.vector.search.elems")
)

// Scored pairs a document ID with a similarity or retrieval score.
type Scored struct {
	ID    uint32
	Score float64
}

// sortScored orders by descending score, breaking ties by ascending ID so
// output is deterministic.
func sortScored(s []Scored) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Score != s[j].Score {
			return s[i].Score > s[j].Score
		}
		return s[i].ID < s[j].ID
	})
}

// VectorStore is a frozen, concurrency-safe store of tf·idf document
// vectors with cosine (unit-normalized dot product) similarity. A
// VectorBuilder compiles the vectors; the store reads the columnar image
// (segcols.go) and nothing else, so it takes no locks.
//
// Documents are numbered by the caller — Magnet uses graph subject IDs, so
// the vector model and the views share one ID space — and terms are dense
// numbers. Each document's row is its normalized tf·idf vector (termnums
// ascending, weights parallel), compiled once at build with the paper's
// §5.2 formula
//
//	term-weight = log(freq + 1) × log(num-docs / num-docs-with-term)
//
// followed by normalization to length one, "to give objects equal
// importance rather than giving more importance to items with more
// metadata". The rows are also stored transposed, as per-term postings,
// so a similarity search reads only its query's terms, as the paper's
// Lucene does. Similarity and centroid kernels run on the caller's
// goroutine, read straight from the columns and sum in a fixed order, so
// every result is deterministic to the bit.
type VectorStore struct {
	terms *ids.Table[string] // dense termnum → term
	//magnet:frozen
	c VectorColumns

	// scratch recycles the termnum-indexed accumulators of similarity and
	// centroid scans (*dense); scores recycles the ID-indexed score arrays
	// of similarity searches (*[]float64, zeroed).
	scratch sync.Pool
	scores  sync.Pool
}

// vecRow is one document's normalized tf·idf vector: termnums ascending,
// weights parallel.
type vecRow struct {
	terms []uint32
	w     []float64
}

// row returns document id's row, slicing the columns (RowTerm and
// RowWeight have equal lengths, checked at open); empty for an ID the
// store never held.
//
//magnet:hot
func (v *VectorStore) row(id uint32) vecRow {
	lo, hi := ids.Run(v.c.RowStart, int(id), len(v.c.RowTerm))
	return vecRow{v.c.RowTerm[lo:hi], v.c.RowWeight[lo:hi]}
}

// docs returns one past the largest document ID.
func (v *VectorStore) docs() int { return len(v.c.RowStart) - 1 }

// Weights returns document id's normalized tf·idf vector as (term, weight)
// pairs in the store's term order — the order every kernel sums in, so a
// sum over the pairs is deterministic. Nil when id holds no document.
func (v *VectorStore) Weights(id uint32) []TermWeight {
	r := v.row(id)
	if len(r.terms) == 0 {
		return nil
	}
	out := make([]TermWeight, len(r.terms))
	for i, t := range r.terms {
		out[i] = TermWeight{v.terms.Key(t), r.w[i]}
	}
	return out
}

// Similarity returns the dot product of the two documents' normalized
// vectors (cosine similarity); zero when either is absent.
func (v *VectorStore) Similarity(a, b uint32) float64 {
	var s float64
	mergeRows(v.row(a), v.row(b), func(_ uint32, wa, wb float64) { s += wa * wb })
	return s
}

// SharedTerms returns the terms documents a and b share, each with the
// product of its two weights, in ascending termnum order: the addends of
// Similarity(a, b), in the order it sums them.
func (v *VectorStore) SharedTerms(a, b uint32) []TermWeight {
	var out []TermWeight
	mergeRows(v.row(a), v.row(b), func(t uint32, wa, wb float64) {
		out = append(out, TermWeight{v.terms.Key(t), wa * wb})
	})
	return out
}

// mergeRows calls f for each term the two rows share, in ascending termnum
// order, with its weight in each.
func mergeRows(a, b vecRow, f func(t uint32, wa, wb float64)) {
	i, j := 0, 0
	for i < len(a.terms) && j < len(b.terms) {
		switch {
		case a.terms[i] < b.terms[j]:
			i++
		case a.terms[i] > b.terms[j]:
			j++
		default:
			f(a.terms[i], a.w[i], b.w[j])
			i++
			j++
		}
	}
}

// dense is a termnum-indexed scratch vector. seen marks the termnums listed
// in touched, so resetting costs O(touched), not O(terms).
type dense struct {
	acc     []float64
	seen    []bool
	touched []uint32
}

// set stores w at termnum t.
func (d *dense) set(t uint32, w float64) {
	if !d.seen[t] {
		d.seen[t] = true
		d.touched = append(d.touched, t)
	}
	d.acc[t] = w
}

// grow extends d to cover n termnums.
func (d *dense) grow(n int) {
	if n > len(d.acc) {
		d.acc = append(d.acc, make([]float64, n-len(d.acc))...)
		d.seen = append(d.seen, make([]bool, n-len(d.seen))...)
	}
}

// getDense returns a zeroed scratch vector covering n termnums.
func (v *VectorStore) getDense(n int) *dense {
	d, _ := v.scratch.Get().(*dense)
	if d == nil {
		d = &dense{}
	}
	d.grow(n)
	return d
}

// reset zeroes d's touched entries.
func (d *dense) reset() {
	for _, t := range d.touched {
		d.acc[t] = 0
		d.seen[t] = false
	}
	d.touched = d.touched[:0]
}

// putDense resets d and recycles it.
func (v *VectorStore) putDense(d *dense) {
	d.reset()
	v.scratch.Put(d)
}

// accumulate adds row r into acc, recording in touched every termnum seen
// for the first time. Termnums past acc (a damaged image) are skipped.
//
//magnet:hot
func accumulate(r vecRow, acc []float64, seen []bool, touched []uint32) []uint32 {
	for j, t := range r.terms {
		if int(t) >= len(acc) {
			continue
		}
		if !seen[t] {
			seen[t] = true
			touched = append(touched, t)
		}
		acc[t] += r.w[j]
	}
	return touched
}

// centroidChunk is the fixed reduction shape for Centroid: members are
// summed in ascending ID order, in chunks of this size, and the per-chunk
// partials added into the total in chunk order. The shape depends only on
// the member count, so the float-addition association, and therefore
// every output bit, is fixed by the members alone; the committed renders
// were recorded with it. Collections up to one chunk reduce exactly like
// a plain running sum.
const centroidChunk = 256

// centroidCount counts centroids computed: the work a collection pane
// pays once per blackboard run; centroidRows counts the member rows they
// sum (tests pin both exactly).
var (
	centroidCount = obs.NewCounter("index.centroid.count")
	centroidRows  = obs.NewCounter("index.centroid.rows")
)

// Centroid is a collection's normalized "average member" vector (§5.3):
// its nonzero termnums ascending, weights parallel. It is computed once
// per collection and read by the refinement ranking (RankTerms), the
// similarity search (Nearest) and the soft-results scoring (ScoreDocs).
type Centroid struct {
	row vecRow
}

// IsEmpty reports whether the centroid has no terms (no member held a
// document).
func (c Centroid) IsEmpty() bool { return len(c.row.terms) == 0 }

// Centroid returns the normalized sum of the members' vectors — the
// "average member" of the collection the paper dots against (§5.3). IDs
// without a document add nothing. The result has unit length unless empty.
//
// Members are summed with the fixed chunk shape (centroidChunk): each
// chunk sums into one recycled accumulator, which is then added into the
// total term by term and reset, so per term the partial sums are added in
// chunk order and no chunk sorts. Only the normalization needs ascending
// termnum order, and one sort of the final term list gives it.
func (v *VectorStore) Centroid(members itemset.Set) Centroid {
	centroidCount.Inc()
	ids := members.Slice()
	centroidRows.Add(uint64(len(ids)))
	nterms := v.terms.Len()
	sum := v.getDense(nterms)
	defer v.putDense(sum)
	part := v.getDense(nterms)
	defer v.putDense(part)
	for lo := 0; lo < len(ids); lo += centroidChunk {
		for _, id := range ids[lo:min(lo+centroidChunk, len(ids))] {
			part.touched = accumulate(v.row(id), part.acc, part.seen, part.touched)
		}
		for _, t := range part.touched {
			if !sum.seen[t] {
				sum.seen[t] = true
				sum.touched = append(sum.touched, t)
			}
			sum.acc[t] += part.acc[t]
		}
		part.reset()
	}
	c := Centroid{vecRow{terms: slices.Clone(sum.touched), w: make([]float64, len(sum.touched))}}
	slices.Sort(c.row.terms)
	var norm float64
	for i, t := range c.row.terms {
		c.row.w[i] = sum.acc[t]
		norm += sum.acc[t] * sum.acc[t]
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range c.row.w {
			c.row.w[i] /= norm
		}
	}
	return c
}

// load sets row r's weights into d; termnums past d (a damaged image) are
// skipped.
func (d *dense) load(r vecRow) {
	for j, t := range r.terms {
		if int(t) < len(d.acc) {
			d.set(t, r.w[j])
		}
	}
}

// search returns the top k documents by their dot product with the query
// row q (termnums ascending), skipping the IDs in exclude. It reads
// whichever is smaller, counted exactly before either is read: the
// postings of q's terms, or the rows of the IDs not excluded. Both sum a
// document's products in ascending termnum order from +0 — a row's terms
// outside q add only zero products, which leave the sum unchanged — so
// either way a score is the sum over shared terms, bit for bit, and a
// document sharing no term with q scores +0 and is dropped by topScored
// with the other non-positive scores.
func (v *VectorStore) search(q vecRow, k int, exclude itemset.Set) []Scored {
	defer vectorSearchObs.observe(time.Now())
	excl := exclude.Slice()
	buf := v.getScores()
	defer v.putScores(buf)
	scores := *buf
	if posted, scanned := v.postingMass(q), v.rowMass(excl); posted <= scanned {
		searchElems.Add(uint64(posted))
		v.scorePostings(q, scores)
		for _, id := range excl {
			if int(id) < len(scores) {
				scores[id] = 0
			}
		}
	} else {
		searchElems.Add(uint64(scanned))
		d := v.getDense(v.terms.Len())
		defer v.putDense(d)
		d.load(q)
		v.scoreRange(d.acc, excl, scores)
	}
	return topScored(scores, k)
}

// getScores returns a zeroed score array covering every document ID.
func (v *VectorStore) getScores() *[]float64 {
	s, _ := v.scores.Get().(*[]float64)
	if s == nil {
		s = new([]float64)
		*s = make([]float64, v.docs())
	}
	return s
}

// putScores zeroes s and recycles it.
func (v *VectorStore) putScores(s *[]float64) {
	clear(*s)
	v.scores.Put(s)
}

// postingMass returns the number of posting elements the query row q's
// terms hold: what scorePostings reads.
func (v *VectorStore) postingMass(q vecRow) int {
	n := 0
	for _, t := range q.terms {
		lo, hi := ids.Run(v.c.PostStart, int(t), len(v.c.PostDoc))
		n += hi - lo
	}
	return n
}

// rowMass returns the number of row elements outside the excluded IDs
// (sorted): what scoreRange reads over the whole ID range.
func (v *VectorStore) rowMass(excl []uint32) int {
	n := len(v.c.RowTerm)
	for _, id := range excl {
		lo, hi := ids.Run(v.c.RowStart, int(id), len(v.c.RowTerm))
		n -= hi - lo
	}
	return max(n, 0)
}

// scorePostings adds each posting weight of the query row q's terms, times
// the term's query weight, into its document's score, term by term in q's
// order. Termnums past the postings and document IDs past scores (a
// damaged image) are skipped.
//
//magnet:hot
func (v *VectorStore) scorePostings(q vecRow, scores []float64) {
	for j, t := range q.terms {
		lo, hi := ids.Run(v.c.PostStart, int(t), len(v.c.PostDoc))
		docs, ws, qw := v.c.PostDoc[lo:hi], v.c.PostWeight[lo:hi], q.w[j]
		for i, d := range docs {
			if int(d) < len(scores) {
				scores[d] += ws[i] * qw
			}
		}
	}
}

// scoreRange dots the rows of IDs 0, 1, … against the dense query q into
// out, one per ID, leaving an excluded ID's score zero. excl lists the
// excluded IDs, ascending.
//
//magnet:hot
func (v *VectorStore) scoreRange(q []float64, excl []uint32, out []float64) {
	for i := range out {
		id := uint32(i)
		if len(excl) > 0 && excl[0] == id {
			excl = excl[1:]
			continue
		}
		out[i] = dot(q, v.row(id))
	}
}

// dot sums row r against the dense query q in ascending termnum order.
// Terms the query lacks add a zero product, which leaves the sum
// unchanged, so the score equals the sum over shared terms alone. An empty
// row scores zero; termnums past q (a damaged image) are skipped.
//
//magnet:hot
func dot(q []float64, r vecRow) float64 {
	var s float64
	for j, t := range r.terms {
		if int(t) < len(q) {
			s += r.w[j] * q[t]
		}
	}
	return s
}

// topScored returns the top k positively scored documents in descending
// score order, ties by ascending ID: every score below the k-th largest is
// dropped, and ties at the cut are kept for the ID tie-break. scores[i] is
// document i's.
func topScored(scores []float64, k int) []Scored {
	cut := kthLargest(scores, k)
	var top []Scored
	for i, s := range scores {
		if s > 0 && s >= cut {
			top = append(top, Scored{uint32(i), s})
		}
	}
	sortScored(top)
	if len(top) > k {
		top = top[:k]
	}
	return top
}

// kthLargest returns the k-th largest positive score, or 0 when fewer than
// k scores are positive. A NaN (a damaged image's weight) is not positive.
func kthLargest(scores []float64, k int) float64 {
	top := make([]float64, 0, min(k, len(scores))) // descending
	for _, s := range scores {
		if !(s > 0) || (len(top) == k && s <= top[k-1]) {
			continue
		}
		i := len(top)
		if i < k {
			top = append(top, s)
		} else {
			i = k - 1
		}
		for ; i > 0 && top[i-1] < s; i-- {
			top[i] = top[i-1]
		}
		top[i] = s
	}
	if len(top) < k {
		return 0
	}
	return top[k-1]
}

// SimilarToDoc returns up to k documents most similar to document id, in
// descending score order (ties by ascending ID), skipping id itself and
// documents with zero score. The query is id's row.
func (v *VectorStore) SimilarToDoc(id uint32, k int) []Scored {
	r := v.row(id)
	if k <= 0 || len(r.terms) == 0 {
		return nil
	}
	return v.search(r, k, itemset.FromSorted([]uint32{id}))
}

// Nearest returns up to k documents most similar to the centroid c, in
// descending score order (ties by ascending ID), skipping the IDs in
// exclude (a collection's members, for "more items like these") and
// documents with zero score.
func (v *VectorStore) Nearest(c Centroid, k int, exclude itemset.Set) []Scored {
	if k <= 0 || c.IsEmpty() {
		return nil
	}
	return v.search(c.row, k, exclude)
}

// ScoreDocs returns the dot product of the centroid with each member's
// vector, in ascending ID order (zero for IDs without a document), summed
// like the similarity scans' scores.
func (v *VectorStore) ScoreDocs(c Centroid, members itemset.Set) []float64 {
	q := v.getDense(v.terms.Len())
	defer v.putDense(q)
	q.load(c.row)
	scores := make([]float64, members.Len())
	for i, id := range members.Slice() {
		scores[i] = dot(q.acc, v.row(id))
	}
	return scores
}

// TermWeight is a term with its weight in some vector.
type TermWeight struct {
	Term   string
	Weight float64
}

// RankTerms calls f with the centroid's positively weighted terms in
// descending weight order, ties by ascending term, until f returns false.
// This is the paper's query-refinement move (§5.3): "applying this
// technique involves just picking terms in the average document having
// the largest normalized term weights". A heap hands out the terms one at
// a time, so a caller that stops after k pays O(n + k log n), and term
// strings are compared only between equal weights.
func (v *VectorStore) RankTerms(c Centroid, f func(term string, w float64) bool) {
	h := make([]int32, 0, len(c.row.w))
	for i, w := range c.row.w {
		if w > 0 {
			h = append(h, int32(i))
		}
	}
	before := func(a, b int32) bool {
		wa, wb := c.row.w[a], c.row.w[b]
		if wa != wb {
			return wa > wb
		}
		return v.terms.Key(c.row.terms[a]) < v.terms.Key(c.row.terms[b])
	}
	down := func(i int) {
		for {
			first := i
			if l := 2*i + 1; l < len(h) && before(h[l], h[first]) {
				first = l
			}
			if r := 2*i + 2; r < len(h) && before(h[r], h[first]) {
				first = r
			}
			if first == i {
				return
			}
			h[i], h[first] = h[first], h[i]
			i = first
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 0 {
		top := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		down(0)
		if !f(v.terms.Key(c.row.terms[top]), c.row.w[top]) {
			return
		}
	}
}

// Columns returns the store's columnar image (what magnet-build writes).
func (v *VectorStore) Columns() VectorColumns { return v.c }
