package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"magnet/internal/itemset"
	"magnet/internal/par"
)

// The kernel tests pin SimilarToDoc, SimilarToCentroid, Centroid,
// Similarity, SharedTerms and ScoreDocs to a reference that works on
// string-keyed vectors read from Weights, summing in ascending termnum
// order with the centroid's fixed 256-item chunk shape over ascending
// member IDs. Agreement must be bit for bit.

// kernelBuilder builds ndocs random documents (IDs 0..ndocs-1) over a
// vocabulary of nterms terms; a third carry a pinned coordinate, whose
// stored frequency is its weight.
func kernelBuilder(rng *rand.Rand, ndocs, nterms int) *VectorBuilder {
	b := NewVectorBuilder()
	b.PinnedPrefix = "num|"
	for d := 0; d < ndocs; d++ {
		freqs := make(map[string]float64)
		for n := 1 + rng.Intn(12); n > 0; n-- {
			freqs[fmt.Sprintf("t%03d", rng.Intn(nterms))] = float64(1 + rng.Intn(4))
		}
		if rng.Intn(3) == 0 {
			freqs["num|a"] = 0.5 + rng.Float64()
		}
		b.Add(uint32(d), freqs)
	}
	return b
}

// refTerms returns vec's terms in ascending termnum order.
func refTerms(v *VectorStore, vec map[string]float64) []string {
	terms := make([]string, 0, len(vec))
	for t := range vec {
		terms = append(terms, t)
	}
	num := func(t string) uint32 {
		n, ok := v.terms.Lookup(t)
		if !ok {
			return math.MaxUint32
		}
		return n
	}
	sort.Slice(terms, func(i, j int) bool { return num(terms[i]) < num(terms[j]) })
	return terms
}

// refDot sums a·b over b's terms in ascending termnum order.
func refDot(v *VectorStore, a, b map[string]float64) float64 {
	var s float64
	for _, t := range refTerms(v, b) {
		if w, ok := a[t]; ok {
			s += b[t] * w
		}
	}
	return s
}

// refCentroid reduces ids (ascending) with maps: per-chunk partial maps,
// merged in chunk order, normalized in ascending termnum order.
func refCentroid(v *VectorStore, ids []uint32) map[string]float64 {
	sum := make(map[string]float64)
	for lo := 0; lo < len(ids); lo += centroidChunk {
		part := make(map[string]float64)
		for _, id := range ids[lo:min(lo+centroidChunk, len(ids))] {
			for t, w := range v.vector(id) {
				part[t] += w
			}
		}
		for t, w := range part {
			sum[t] += w
		}
	}
	var norm float64
	for _, t := range refTerms(v, sum) {
		norm += sum[t] * sum[t]
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for t := range sum {
			sum[t] /= norm
		}
	}
	return sum
}

// refSimilarTo scores every stored document against query and keeps the
// top k under (score desc, ID asc).
func refSimilarTo(v *VectorStore, query map[string]float64, k int, exclude map[uint32]bool) []Scored {
	var out []Scored
	for _, id := range v.docIDs() {
		if exclude[id] {
			continue
		}
		if s := refDot(v, query, v.vector(id)); s > 0 {
			out = append(out, Scored{id, s})
		}
	}
	sortScored(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func sameScored(t *testing.T, what string, got, want []Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s[%d] = %d %v, want %d %v (bit-exact)", what, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

func sameVector(t *testing.T, what string, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d terms, want %d", what, len(got), len(want))
	}
	for term, w := range want {
		g, ok := got[term]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s[%q] = %v, want %v (bit-exact)", what, term, g, w)
		}
	}
}

// checkKernel compares every kernel entry point against the reference on
// one store, with the given members and probe documents.
func checkKernel(t *testing.T, v *VectorStore, members itemset.Set, probes []uint32, k int) {
	t.Helper()
	want := refCentroid(v, members.Slice())
	sameVector(t, "Centroid", v.Centroid(members), want)

	memberSet := make(map[uint32]bool, members.Len())
	for _, id := range members.Slice() {
		memberSet[id] = true
	}
	sameScored(t, "SimilarToCentroid", v.SimilarToCentroid(members, k, true), refSimilarTo(v, want, k, memberSet))
	sameScored(t, "SimilarToCentroid(keep members)", v.SimilarToCentroid(members, k, false), refSimilarTo(v, want, k, nil))

	probeSet := itemset.FromUnsorted(slices.Clone(probes))
	scores := v.ScoreDocs(want, probeSet)
	for i, id := range probeSet.Slice() {
		if r := refDot(v, want, v.vector(id)); math.Float64bits(scores[i]) != math.Float64bits(r) {
			t.Fatalf("ScoreDocs[%d] = %v, want %v (bit-exact)", id, scores[i], r)
		}
	}
	for i, a := range probes {
		va := v.vector(a)
		sameScored(t, fmt.Sprintf("SimilarToDoc(%d)", a), v.SimilarToDoc(a, k), refSimilarTo(v, va, k, map[uint32]bool{a: true}))
		b := probes[(i+1)%len(probes)]
		got, r := v.Similarity(a, b), refDot(v, va, v.vector(b))
		if math.Float64bits(got) != math.Float64bits(r) {
			t.Fatalf("Similarity(%d, %d) = %v, want %v (bit-exact)", a, b, got, r)
		}
		var sum float64
		for _, tw := range v.SharedTerms(a, b) {
			sum += tw.Weight
		}
		if math.Float64bits(sum) != math.Float64bits(got) {
			t.Fatalf("SharedTerms(%d, %d) sum to %v, Similarity is %v (bit-exact)", a, b, sum, got)
		}
	}
}

// TestVectorKernelEquivalence runs the kernel against the reference on a
// freshly built store ("memory") and one opened from its columns
// ("segment"), at pool widths nil, 1 and 4, with member sets under and
// over one centroid chunk.
func TestVectorKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := kernelBuilder(rng, 700, 90)
	ids := b.Freeze(nil).docIDs()
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	probes := ids[:8]
	for _, width := range []int{0, 1, 4} {
		var pool *par.Pool
		if width > 0 {
			pool = par.New(width)
		}
		seg, err := FromVectorColumns(b.Columns(), pool)
		if err != nil {
			t.Fatal(err)
		}
		for _, backing := range []struct {
			name string
			v    *VectorStore
		}{{"memory", b.Freeze(pool)}, {"segment", seg}} {
			for _, n := range []int{1, 256, 257, 600} {
				members := itemset.FromUnsorted(slices.Clone(ids[:n]))
				for _, k := range []int{6, 50} {
					t.Run(fmt.Sprintf("%s/w%d/n%d/k%d", backing.name, width, n, k), func(t *testing.T) {
						checkKernel(t, backing.v, members, probes, k)
					})
				}
			}
		}
		if pool != nil {
			pool.Close()
		}
	}
	absent := itemset.FromSorted([]uint32{5000})
	if got := b.Freeze(nil).ScoreDocs(map[string]float64{"t001": 1}, absent); got[0] != 0 {
		t.Errorf("ScoreDocs(absent) = %v, want 0", got[0])
	}
}

// TestVectorSumDeterminism calls each float-summing path repeatedly — the
// centroid and its norm, Similarity, and ScoreDocs (the soft-results
// ranking) — and requires the same bits every time. Map iteration order
// changes between calls, so any sum that followed it would drift in its
// low bits.
func TestVectorSumDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	v := kernelBuilder(rng, 400, 60).Freeze(nil)
	ids := v.docIDs()
	all := itemset.FromSorted(ids)
	members := itemset.FromSorted(ids[:300])
	centroid := v.Centroid(members)
	scores := v.ScoreDocs(centroid, all)
	sims := make([]float64, 50)
	for i := range sims {
		sims[i] = v.Similarity(ids[i], ids[i+50])
	}
	for round := 0; round < 20; round++ {
		sameVector(t, "Centroid", v.Centroid(members), centroid)
		for i, s := range v.ScoreDocs(centroid, all) {
			if math.Float64bits(s) != math.Float64bits(scores[i]) {
				t.Fatalf("round %d: ScoreDocs[%d] = %v, was %v", round, ids[i], s, scores[i])
			}
		}
		for i, want := range sims {
			if got := v.Similarity(ids[i], ids[i+50]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d: Similarity(%d, %d) = %v, was %v", round, ids[i], ids[i+50], got, want)
			}
		}
	}
}

// FuzzVectorKernel builds a small store from the fuzz input — each byte
// pair adds one (document, term) frequency — and checks the kernel against
// the reference, serially and on a pool.
func FuzzVectorKernel(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x31, 0x44, 0x15, 0x26, 0x07})
	f.Add([]byte("similar by content"))
	f.Fuzz(func(t *testing.T, data []byte) {
		docs := make(map[uint32]map[string]float64)
		for i := 0; i+1 < len(data); i += 2 {
			d := uint32(data[i] % 16)
			term := fmt.Sprintf("t%d", data[i+1]%24)
			if data[i+1]%5 == 0 {
				term = "num|x"
			}
			if docs[d] == nil {
				docs[d] = make(map[string]float64)
			}
			docs[d][term] += float64(1 + data[i]>>4)
		}
		b := NewVectorBuilder()
		b.PinnedPrefix = "num|"
		names := make([]uint32, 0, len(docs))
		for d := range docs {
			names = append(names, d)
		}
		slices.Sort(names)
		for _, d := range names {
			b.Add(d, docs[d])
		}
		if len(names) == 0 {
			return
		}
		pool := par.New(2)
		defer pool.Close()
		for _, s := range []*VectorStore{b.Freeze(nil), b.Freeze(pool)} {
			checkKernel(t, s, itemset.FromSorted(names[:len(names)/2+1]), names, 3)
			checkKernel(t, s, itemset.FromSorted(names), names, 3)
		}
	})
}
