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
	"context"
	"errors"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"magnet/internal/ids"
	"magnet/internal/itemset"
	"magnet/internal/obs"
	"magnet/internal/par"
)

// Vector-store observability: similarity retrieval timing.
var vectorSearchObs = opObs{obs.NewCounter("index.vector.search.count"), obs.NewHistogram("index.vector.search.ns")}

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
// metadata". Retrieval candidates come from the per-term postings.
// Similarity and centroid kernels read rows straight from the columns and
// sum in ascending termnum order, so every result is deterministic to the
// bit.
type VectorStore struct {
	terms *ids.Table[string] // dense termnum → term
	//magnet:frozen
	c VectorColumns
	// pool chunks similarity/centroid scans across workers; nil scans
	// serially. Results are identical either way: top-k selection uses a
	// total order (score desc, ID asc) and the centroid reduction's chunk
	// shape is fixed independent of pool width.
	pool *par.Pool

	// scratch recycles the termnum-indexed accumulators of similarity and
	// centroid scans (*dense).
	scratch sync.Pool
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

// putDense zeroes d's touched entries and recycles it.
func (v *VectorStore) putDense(d *dense) {
	for _, t := range d.touched {
		d.acc[t] = 0
		d.seen[t] = false
	}
	d.touched = d.touched[:0]
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
// partials merged in chunk order. The shape depends only on the member
// count — never on pool width — so the float-addition association, and
// therefore every output bit, is identical at every width. Collections up
// to one chunk reduce exactly like a plain serial loop.
const centroidChunk = 256

// centroid sums the rows of members into a dense vector with the fixed
// chunk shape and normalizes it, summing squares in ascending termnum
// order. It returns the vector, its touched list sorted; the caller
// recycles it with putDense.
func (v *VectorStore) centroid(members itemset.Set) *dense {
	ids := members.Slice()
	nterms := v.terms.Len()

	// Each chunk's partial sum becomes a row of its own (termnums sorted),
	// and the partials are added in chunk order: per term, the same
	// additions in the same order as a map-per-chunk reduction.
	parts := make([]vecRow, (len(ids)+centroidChunk-1)/centroidChunk)
	err := par.ForChunks(context.Background(), v.pool, len(ids), centroidChunk, func(lo, hi int) {
		d := v.getDense(nterms)
		for _, id := range ids[lo:hi] {
			d.touched = accumulate(v.row(id), d.acc, d.seen, d.touched)
		}
		slices.Sort(d.touched)
		part := vecRow{terms: slices.Clone(d.touched), w: make([]float64, len(d.touched))}
		for i, t := range part.terms {
			part.w[i] = d.acc[t]
		}
		v.putDense(d)
		parts[lo/centroidChunk] = part
	})
	var pe *par.PanicError
	if errors.As(err, &pe) {
		panic(pe)
	}
	sum := v.getDense(nterms)
	for _, part := range parts {
		sum.touched = accumulate(part, sum.acc, sum.seen, sum.touched)
	}
	slices.Sort(sum.touched)
	var norm float64
	for _, t := range sum.touched {
		norm += sum.acc[t] * sum.acc[t]
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for _, t := range sum.touched {
			sum.acc[t] /= norm
		}
	}
	return sum
}

// Centroid returns the normalized sum of the members' vectors — the
// "average member" of the collection the paper dots against (§5.3). IDs
// without a document add nothing. The result has unit length unless empty.
func (v *VectorStore) Centroid(members itemset.Set) map[string]float64 {
	sum := v.centroid(members)
	out := make(map[string]float64, len(sum.touched))
	for _, t := range sum.touched {
		out[v.terms.Key(t)] = sum.acc[t]
	}
	v.putDense(sum)
	return out
}

// candidates returns, in ID order, every document sharing one of terms,
// skipping the IDs in exclude (may be nil).
func (v *VectorStore) candidates(terms []uint32, exclude *itemset.Bits) []uint32 {
	n := v.docs()
	b := itemset.NewBits(n)
	for _, t := range terms {
		lo, hi := ids.Run(v.c.PostStart, int(t), len(v.c.PostDNS))
		b.AddSliceBelow(v.c.PostDNS[lo:hi], n)
	}
	cands := b.Extract().Slice()
	if exclude == nil {
		return cands
	}
	kept := make([]uint32, 0, len(cands))
	for _, dn := range cands {
		if !exclude.Has(dn) {
			kept = append(kept, dn)
		}
	}
	return kept
}

// search scores the candidates of the dense query q (its nonzero termnums
// listed in q.touched) and returns the top k, skipping excluded IDs.
func (v *VectorStore) search(q *dense, k int, exclude *itemset.Bits) []Scored {
	defer vectorSearchObs.observe(time.Now())
	dns := v.candidates(q.touched, exclude)

	// Chunk the candidate range across the pool; each chunk keeps only its
	// local top-k, and the merged list re-sorts under the same total order
	// (score desc, ID asc). IDs are unique, so the order is total and the
	// global top-k is identical however the candidates were chunked.
	chunk := par.ChunkFor(v.pool, len(dns))
	nchunks := (len(dns) + chunk - 1) / chunk
	parts := make([][]Scored, nchunks)
	err := par.ForChunks(context.Background(), v.pool, len(dns), chunk, func(lo, hi int) {
		scores := make([]float64, hi-lo)
		v.scoreRows(q.acc, dns[lo:hi], scores)
		parts[lo/chunk] = topScored(scores, dns[lo:hi], k)
	})
	var pe *par.PanicError
	if errors.As(err, &pe) {
		panic(pe)
	}
	var scores []Scored
	if nchunks == 1 {
		scores = parts[0]
	} else {
		for _, part := range parts {
			scores = append(scores, part...)
		}
	}
	sortScored(scores)
	if len(scores) > k {
		scores = scores[:k]
	}
	return scores
}

// scoreRows dots each document's row against the dense query q, summing in
// ascending termnum order. Terms the query lacks add a zero product, which
// leaves the sum unchanged, so each score equals the sum over shared terms
// alone. An absent document scores zero; termnums past q (a damaged image)
// are skipped.
//
//magnet:hot
func (v *VectorStore) scoreRows(q []float64, dns []uint32, out []float64) {
	for i, dn := range dns {
		r := v.row(dn)
		var s float64
		for j, t := range r.terms {
			if int(t) < len(q) {
				s += r.w[j] * q[t]
			}
		}
		out[i] = s
	}
}

// topScored returns the positively scored documents that can still reach
// the top k: every score below the k-th largest is dropped, and ties at the
// cut are kept for the ID tie-break.
func topScored(scores []float64, dns []uint32, k int) []Scored {
	cut := kthLargest(scores, k)
	var local []Scored
	for i, s := range scores {
		if s > 0 && s >= cut {
			local = append(local, Scored{dns[i], s})
		}
	}
	if len(local) > k {
		sortScored(local)
		local = local[:k]
	}
	return local
}

// kthLargest returns the k-th largest positive score, or 0 when fewer than
// k scores are positive.
func kthLargest(scores []float64, k int) float64 {
	top := make([]float64, 0, min(k, len(scores))) // descending
	for _, s := range scores {
		if s <= 0 || (len(top) == k && s <= top[k-1]) {
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
// documents with zero score. The query is id's row, read straight into the
// dense accumulator.
func (v *VectorStore) SimilarToDoc(id uint32, k int) []Scored {
	r := v.row(id)
	if k <= 0 || len(r.terms) == 0 {
		return nil
	}
	q := v.getDense(v.terms.Len())
	defer v.putDense(q)
	for j, t := range r.terms {
		if int(t) < len(q.acc) {
			q.set(t, r.w[j])
		}
	}
	self := itemset.NewBits(int(id) + 1)
	self.Add(id)
	return v.search(q, k, self)
}

// SimilarToCentroid returns up to k documents most similar to the centroid
// of members (see Centroid), excluding the members themselves when
// excludeMembers is set.
func (v *VectorStore) SimilarToCentroid(members itemset.Set, k int, excludeMembers bool) []Scored {
	if k <= 0 {
		return nil
	}
	q := v.centroid(members)
	defer v.putDense(q)
	if len(q.touched) == 0 {
		return nil
	}
	var excl *itemset.Bits
	if excludeMembers {
		excl = itemset.NewBits(v.docs())
		excl.AddSliceBelow(members.Slice(), v.docs())
	}
	return v.search(q, k, excl)
}

// ScoreDocs returns the dot product of the query vector with each member's
// vector, in ascending ID order (zero for IDs without a document), summed
// like the similarity scans' scores.
func (v *VectorStore) ScoreDocs(query map[string]float64, members itemset.Set) []float64 {
	q := v.getDense(v.terms.Len())
	defer v.putDense(q)
	for t, w := range query {
		if tn, ok := v.terms.Lookup(t); ok {
			q.set(tn, w)
		}
	}
	scores := make([]float64, members.Len())
	v.scoreRows(q.acc, members.Slice(), scores)
	return scores
}

// TermWeight is a term with its weight in some vector.
type TermWeight struct {
	Term   string
	Weight float64
}

// TopTerms returns the k highest-weighted terms of vec in descending weight
// order (ties broken by term). This implements the paper's query-refinement
// move (§5.3): "applying this technique involves just picking terms in the
// average document having the largest normalized term weights". accept may
// be nil; otherwise only terms it admits are returned.
func TopTerms(vec map[string]float64, k int, accept func(string) bool) []TermWeight {
	if k <= 0 {
		return nil
	}
	out := make([]TermWeight, 0, len(vec))
	for t, w := range vec {
		if w <= 0 {
			continue
		}
		if accept != nil && !accept(t) {
			continue
		}
		out = append(out, TermWeight{t, w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Term < out[j].Term
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Columns returns the store's columnar image (what magnet-build writes).
func (v *VectorStore) Columns() VectorColumns { return v.c }
