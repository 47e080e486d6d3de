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

// Vector-store observability: hit/miss on the row cache (a miss means
// buildRowLocked actually built), counted once per row
// consulted but added once per call, plus similarity retrieval timing.
var (
	vectorCacheHit  = obs.NewCounter("index.vector.cache.hit")
	vectorCacheMiss = obs.NewCounter("index.vector.cache.miss")
	vectorSearchObs = opObs{obs.NewCounter("index.vector.search.count"), obs.NewHistogram("index.vector.search.ns")}
)

// countRows adds one call's row-cache lookups to the hit/miss counters.
func countRows(hits, misses int) {
	if hits > 0 {
		vectorCacheHit.Add(uint64(hits))
	}
	if misses > 0 {
		vectorCacheMiss.Add(uint64(misses))
	}
}

// Scored pairs a document ID with a similarity or retrieval score.
type Scored struct {
	ID    string
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

// VectorStore is a frozen, concurrency-safe store of sparse
// term-frequency vectors with tf·idf weighting and cosine (unit-normalized
// dot product) similarity. A VectorBuilder collects the vectors; the store
// reads the columnar image it compiles (segcols.go).
//
// Documents and terms are dense uint32 numbers; per-document term vectors
// are sorted termnum runs with parallel raw frequencies, and retrieval
// candidates come from the precomputed per-term docnum postings.
//
// Weighted vectors are derived lazily using the paper's §5.2 formula
//
//	term-weight = log(freq + 1) × log(num-docs / num-docs-with-term)
//
// followed by normalization of each document vector to length one, "to give
// objects equal importance rather than giving more importance to items with
// more metadata". Derived vectors are cached as rows (termnums ascending,
// weights parallel), built on first use, off the open path. Similarity and
// centroid kernels work on rows and dense termnum-indexed arrays and sum in
// ascending termnum order, so every result is deterministic to the bit.
type VectorStore struct {
	docs  *ids.Table[string] // dense docnum → docID
	terms *ids.Table[string] // dense termnum → term
	//magnet:frozen
	c VectorColumns

	mu sync.RWMutex
	// rows: docnum → normalized tf·idf row, nil until built; the column
	// itself is allocated on the first row build. Guarded by mu.
	rows []*vecRow
	// pool chunks similarity/centroid scans across workers; nil scans
	// serially. Guarded by mu.
	pool *par.Pool

	// scratch recycles the termnum-indexed accumulators of similarity and
	// centroid scans (*dense).
	scratch sync.Pool
}

// vecRow is one document's normalized tf·idf vector: termnums ascending,
// weights parallel. A row never changes once built, so a row snapshotted
// under mu may be read after unlocking.
type vecRow struct {
	terms []uint32
	w     []float64
}

// SetPool sets the worker pool similarity and centroid scans fan out on.
// A nil pool (the default) scans serially; results are identical either
// way — top-k selection uses a total order (score desc, ID asc) and the
// centroid reduction's chunk shape is fixed independent of pool width.
func (v *VectorStore) SetPool(p *par.Pool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.pool = p
}

func (v *VectorStore) getPool() *par.Pool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.pool
}

// Len returns the number of documents stored.
func (v *VectorStore) Len() int { return len(v.c.LiveDNS) }

// liveAt reports whether docnum dn holds a stored document.
func (v *VectorStore) liveAt(dn uint32) bool {
	i := searchPost(v.c.LiveDNS, dn)
	return i < len(v.c.LiveDNS) && v.c.LiveDNS[i] == dn
}

// df returns the document frequency of termnum t.
//
//magnet:hot
func (v *VectorStore) df(t uint32) int {
	if int(t) >= len(v.c.DF) {
		return 0
	}
	return int(v.c.DF[t])
}

// pinned reports whether termnum t's stored frequency is its weight.
//
//magnet:hot
func (v *VectorStore) pinned(t uint32) bool {
	if int(t)/8 >= len(v.c.Pinned) {
		return false
	}
	return v.c.Pinned[t/8]&(1<<(t%8)) != 0
}

//magnet:hot
func (v *VectorStore) idf(t uint32) float64 {
	df := v.df(t)
	if df == 0 {
		return 0
	}
	return math.Log(float64(v.Len()) / float64(df))
}

// cachedRowLocked returns dn's cached row, or nil when it is not built.
// Caller holds mu, read or write. The row column starts empty, hence the
// bounds check.
func (v *VectorStore) cachedRowLocked(dn uint32) *vecRow {
	if int(dn) >= len(v.rows) {
		return nil
	}
	return v.rows[dn]
}

// ensureRowsLocked allocates the row column over the full document range:
// the one O(docs) allocation, paid on the first read after open.
func (v *VectorStore) ensureRowsLocked() {
	if v.rows == nil {
		v.rows = make([]*vecRow, v.docs.Len())
	}
}

// rowLocked returns dn's row (nil for an absent document), building and
// caching it on a miss, and reports whether the cache hit. Caller holds the
// write lock and has called ensureRowsLocked.
func (v *VectorStore) rowLocked(dn uint32) (*vecRow, bool) {
	if r := v.rows[dn]; r != nil {
		return r, true
	}
	r := v.buildRowLocked(dn)
	v.rows[dn] = r
	return r, false
}

// row returns docID's row, or nil when docID is absent.
func (v *VectorStore) row(docID string) *vecRow {
	rows, _ := v.rowsFor([]string{docID})
	return rows[0]
}

// rowsFor snapshots the rows of ids into a slice parallel to ids (nil for
// absent IDs) and returns the docnums of the present ones. Cached rows are
// read under the read lock; only misses take the write lock.
func (v *VectorStore) rowsFor(ids []string) ([]*vecRow, []uint32) {
	rows := make([]*vecRow, len(ids))
	dns := make([]uint32, len(ids))
	known := make([]bool, len(ids))
	hits, missing := 0, 0
	v.mu.RLock()
	for i, id := range ids {
		dn, ok := v.docs.Lookup(id)
		if !ok {
			continue
		}
		dns[i], known[i] = dn, true
		if rows[i] = v.cachedRowLocked(dn); rows[i] != nil {
			hits++
		} else {
			missing++
		}
	}
	v.mu.RUnlock()
	misses := 0
	if missing > 0 {
		v.mu.Lock()
		v.ensureRowsLocked()
		for i := range ids {
			if !known[i] || rows[i] != nil {
				continue
			}
			var hit bool
			if rows[i], hit = v.rowLocked(dns[i]); hit {
				hits++
			} else {
				misses++
			}
		}
		v.mu.Unlock()
	}
	countRows(hits, misses)
	present := dns[:0]
	for i, dn := range dns {
		if rows[i] != nil {
			present = append(present, dn)
		}
	}
	return rows, present
}

// buildRowLocked derives dn's normalized tf·idf row from its raw
// frequencies; nil when dn holds no document. Weights are normalized by the
// row's length, summed in ascending termnum order.
func (v *VectorStore) buildRowLocked(dn uint32) *vecRow {
	if !v.liveAt(dn) {
		return nil
	}
	lo, hi := ids.Run(v.c.DocStart, int(dn), len(v.c.DocTerm))
	if hi > len(v.c.DocFreq) {
		lo, hi = 0, 0
	}
	ts, fs := v.c.DocTerm[lo:hi], v.c.DocFreq[lo:hi]
	r := &vecRow{terms: make([]uint32, 0, len(ts)), w: make([]float64, 0, len(ts))}
	var norm float64
	for i, t := range ts {
		var w float64
		if v.pinned(t) {
			w = fs[i]
		} else {
			w = math.Log(fs[i]+1) * v.idf(t)
		}
		if w == 0 {
			continue // includes damaged termnums, whose df reads as 0
		}
		r.terms = append(r.terms, t)
		r.w = append(r.w, w)
		norm += w * w
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range r.w {
			r.w[i] /= norm
		}
	}
	return r
}

// rowMap renders a row as the term-keyed map the string-level API returns.
func (v *VectorStore) rowMap(r *vecRow) map[string]float64 {
	m := make(map[string]float64, len(r.terms))
	for i, t := range r.terms {
		m[v.terms.Key(t)] = r.w[i]
	}
	return m
}

// Vector returns the normalized tf·idf vector of docID (nil if absent).
// The map is built from the cached row on every call; callers own it.
func (v *VectorStore) Vector(docID string) map[string]float64 {
	r := v.row(docID)
	if r == nil {
		return nil
	}
	return v.rowMap(r)
}

// Weights returns docID's normalized tf·idf vector as (term, weight) pairs
// in the store's term order — the order every kernel sums in, so a sum over
// the pairs is deterministic. Nil when docID is absent.
func (v *VectorStore) Weights(docID string) []TermWeight {
	r := v.row(docID)
	if r == nil {
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
func (v *VectorStore) Similarity(a, b string) float64 {
	ra, rb := v.row(a), v.row(b)
	if ra == nil || rb == nil {
		return 0
	}
	return dotRows(ra, rb)
}

// dotRows merges two rows, summing the shared terms' products in ascending
// termnum order.
//
//magnet:hot
func dotRows(a, b *vecRow) float64 {
	var s float64
	i, j := 0, 0
	for i < len(a.terms) && j < len(b.terms) {
		switch {
		case a.terms[i] < b.terms[j]:
			i++
		case a.terms[i] > b.terms[j]:
			j++
		default:
			s += a.w[i] * b.w[j]
			i++
			j++
		}
	}
	return s
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

// accumulateRows adds each row into acc, in row order, recording in touched
// every termnum seen for the first time.
//
//magnet:hot
func accumulateRows(rows []*vecRow, acc []float64, seen []bool, touched []uint32) []uint32 {
	for _, r := range rows {
		if r == nil {
			continue
		}
		for j, t := range r.terms {
			if !seen[t] {
				seen[t] = true
				touched = append(touched, t)
			}
			acc[t] += r.w[j]
		}
	}
	return touched
}

// centroidChunk is the fixed reduction shape for Centroid: ids are summed
// in chunks of this size and the per-chunk partials merged in chunk order.
// The shape depends only on len(ids) — never on pool width — so the
// float-addition association, and therefore every output bit, is identical
// at every width. Collections up to one chunk reduce exactly like a plain
// serial loop.
const centroidChunk = 256

// centroid sums the rows of ids into a dense vector with the fixed chunk
// shape and normalizes it, summing squares in ascending termnum order. It
// returns the vector (its touched list sorted; the caller recycles it with
// putDense) and the docnums of the present ids.
func (v *VectorStore) centroid(ids []string) (*dense, []uint32) {
	rows, dns := v.rowsFor(ids)
	nterms := v.terms.Len() // after rowsFor: covers every termnum in rows
	pool := v.getPool()

	// Each chunk's partial sum becomes a row of its own (termnums sorted),
	// and the partials are added in chunk order: per term, the same
	// additions in the same order as a map-per-chunk reduction.
	parts := make([]*vecRow, (len(ids)+centroidChunk-1)/centroidChunk)
	err := par.ForChunks(context.Background(), pool, len(ids), centroidChunk, func(lo, hi int) {
		d := v.getDense(nterms)
		d.touched = accumulateRows(rows[lo:hi], d.acc, d.seen, d.touched)
		slices.Sort(d.touched)
		part := &vecRow{terms: slices.Clone(d.touched), w: make([]float64, len(d.touched))}
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
	sum.touched = accumulateRows(parts, sum.acc, sum.seen, sum.touched)
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
	return sum, dns
}

// Centroid returns the normalized sum of the documents' vectors — the
// "average member" of the collection the paper dots against (§5.3). Absent
// IDs are skipped. The result has unit length unless empty.
func (v *VectorStore) Centroid(ids []string) map[string]float64 {
	sum, _ := v.centroid(ids)
	out := make(map[string]float64, len(sum.touched))
	for _, t := range sum.touched {
		out[v.terms.Key(t)] = sum.acc[t]
	}
	v.putDense(sum)
	return out
}

// candidatesLocked snapshots the rows of every live document sharing one
// of terms, in docnum order, skipping the docnums in exclude (may be nil).
// Caller holds the write lock.
func (v *VectorStore) candidatesLocked(terms []uint32, exclude *itemset.Bits) ([]*vecRow, []uint32) {
	n := v.docs.Len()
	b := itemset.NewBits(n)
	for _, t := range terms {
		lo, hi := ids.Run(v.c.PostStart, int(t), len(v.c.PostDNS))
		b.AddSliceBelow(v.c.PostDNS[lo:hi], n)
	}
	cands := b.Extract().Slice()
	v.ensureRowsLocked()
	rows := make([]*vecRow, 0, len(cands))
	dns := make([]uint32, 0, len(cands))
	hits, misses := 0, 0
	for _, dn := range cands {
		if exclude != nil && exclude.Has(dn) {
			continue
		}
		r, hit := v.rowLocked(dn)
		if hit {
			hits++
		} else {
			misses++
		}
		rows = append(rows, r)
		dns = append(dns, dn)
	}
	countRows(hits, misses)
	return rows, dns
}

// search scores the candidates of the dense query q (its nonzero termnums
// listed in q.touched) and returns the top k, skipping excluded docnums.
func (v *VectorStore) search(q *dense, k int, exclude *itemset.Bits) []Scored {
	defer vectorSearchObs.observe(time.Now())
	v.mu.Lock()
	q.grow(v.terms.Len())
	rows, dns := v.candidatesLocked(q.touched, exclude)
	pool := v.pool
	v.mu.Unlock()

	// Chunk the candidate range across the pool; each chunk keeps only its
	// local top-k, and the merged list re-sorts under the same total order
	// (score desc, ID asc). IDs are unique, so the order is total and the
	// global top-k is identical however the candidates were chunked.
	chunk := par.ChunkFor(pool, len(rows))
	nchunks := (len(rows) + chunk - 1) / chunk
	parts := make([][]Scored, nchunks)
	err := par.ForChunks(context.Background(), pool, len(rows), chunk, func(lo, hi int) {
		scores := make([]float64, hi-lo)
		scoreRows(q.acc, rows[lo:hi], scores)
		parts[lo/chunk] = v.topScored(scores, dns[lo:hi], k)
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

// scoreRows dots each row against the dense query q, summing in ascending
// termnum order. Terms the query lacks add a zero product, which leaves the
// sum unchanged, so each score equals the sum over shared terms alone. A
// nil row (absent document) scores zero.
//
//magnet:hot
func scoreRows(q []float64, rows []*vecRow, out []float64) {
	for i, r := range rows {
		var s float64
		if r == nil {
			out[i] = s
			continue
		}
		for j, t := range r.terms {
			s += r.w[j] * q[t]
		}
		out[i] = s
	}
}

// topScored returns the positively scored documents that can still reach
// the top k: every score below the k-th largest is dropped before its ID is
// looked up, and ties at the cut are kept for the ID tie-break.
func (v *VectorStore) topScored(scores []float64, dns []uint32, k int) []Scored {
	cut := kthLargest(scores, k)
	var local []Scored
	for i, s := range scores {
		if s > 0 && s >= cut {
			local = append(local, Scored{v.docs.Key(dns[i]), s})
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

// docnumSet resolves docIDs to a docnum set; nil when none is known.
func (v *VectorStore) docnumSet(docIDs []string) *itemset.Bits {
	var b *itemset.Bits
	for _, id := range docIDs {
		if dn, ok := v.docs.Lookup(id); ok {
			if b == nil {
				b = itemset.NewBits(v.docs.Len())
			}
			b.Add(dn)
		}
	}
	return b
}

// SimilarTo returns up to k documents most similar to the query vector, in
// descending score order (ties by ascending ID), skipping the documents in
// exclude and documents with zero score.
func (v *VectorStore) SimilarTo(query map[string]float64, k int, exclude []string) []Scored {
	if k <= 0 || len(query) == 0 {
		return nil
	}
	q := v.getDense(v.terms.Len())
	defer v.putDense(q)
	for t, w := range query {
		if tn, ok := v.terms.Lookup(t); ok {
			q.set(tn, w)
		}
	}
	return v.search(q, k, v.docnumSet(exclude))
}

// SimilarToCentroid returns up to k documents most similar to the centroid
// of ids (see Centroid), excluding the members themselves when
// excludeMembers is set: SimilarTo(Centroid(ids), ...) on the dense
// centroid, without the map round trip or a string set of members.
func (v *VectorStore) SimilarToCentroid(ids []string, k int, excludeMembers bool) []Scored {
	if k <= 0 {
		return nil
	}
	q, members := v.centroid(ids)
	defer v.putDense(q)
	if len(q.touched) == 0 {
		return nil
	}
	var excl *itemset.Bits
	if excludeMembers && len(members) > 0 {
		excl = itemset.NewBits(v.docs.Len())
		excl.AddSlice(members)
	}
	return v.search(q, k, excl)
}

// ScoreDocs returns the dot product of the query vector with each of ids'
// vectors (zero for absent IDs), summed like SimilarTo's scores.
func (v *VectorStore) ScoreDocs(query map[string]float64, ids []string) []float64 {
	rows, _ := v.rowsFor(ids)
	q := v.getDense(v.terms.Len()) // after rowsFor: covers every row termnum
	defer v.putDense(q)
	for t, w := range query {
		if tn, ok := v.terms.Lookup(t); ok {
			q.set(tn, w)
		}
	}
	scores := make([]float64, len(ids))
	scoreRows(q.acc, rows, scores)
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
