package index

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"magnet/internal/par"
)

// The kernel tests pin SimilarTo, SimilarToCentroid, Centroid, Similarity
// and ScoreDocs to a reference that works on the string-keyed vectors
// Vector returns, summing in ascending termnum order with the centroid's
// fixed 256-item chunk shape. Agreement must be bit for bit.

// kernelStore builds a store of ndocs random documents over a vocabulary of
// nterms terms; a third carry a pinned coordinate, whose stored frequency
// is its weight.
func kernelStore(rng *rand.Rand, ndocs, nterms int) *VectorStore {
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
		b.Add(fmt.Sprintf("doc%04d", d), freqs)
	}
	return b.Freeze()
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

// refCentroid reduces ids with maps: per-chunk partial maps, merged in
// chunk order, normalized in ascending termnum order.
func refCentroid(v *VectorStore, ids []string) map[string]float64 {
	sum := make(map[string]float64)
	for lo := 0; lo < len(ids); lo += centroidChunk {
		part := make(map[string]float64)
		for _, id := range ids[lo:min(lo+centroidChunk, len(ids))] {
			for t, w := range v.Vector(id) {
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
func refSimilarTo(v *VectorStore, query map[string]float64, k int, exclude map[string]bool) []Scored {
	var out []Scored
	for _, id := range v.docIDs() {
		if exclude[id] {
			continue
		}
		if s := refDot(v, query, v.Vector(id)); s > 0 {
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
			t.Fatalf("%s[%d] = %s %v, want %s %v (bit-exact)", what, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
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
func checkKernel(t *testing.T, v *VectorStore, members, probes []string, k int) {
	t.Helper()
	want := refCentroid(v, members)
	sameVector(t, "Centroid", v.Centroid(members), want)

	memberSet := make(map[string]bool, len(members))
	for _, id := range members {
		memberSet[id] = true
	}
	sameScored(t, "SimilarToCentroid", v.SimilarToCentroid(members, k, true), refSimilarTo(v, want, k, memberSet))
	sameScored(t, "SimilarToCentroid(keep members)", v.SimilarToCentroid(members, k, false), refSimilarTo(v, want, k, nil))
	sameScored(t, "SimilarTo(centroid)", v.SimilarTo(want, k, members), refSimilarTo(v, want, k, memberSet))

	scores := v.ScoreDocs(want, probes)
	for i, id := range probes {
		if r := refDot(v, want, v.Vector(id)); math.Float64bits(scores[i]) != math.Float64bits(r) {
			t.Fatalf("ScoreDocs[%s] = %v, want %v (bit-exact)", id, scores[i], r)
		}
	}
	for i, a := range probes {
		va := v.Vector(a)
		sameScored(t, "SimilarTo("+a+")", v.SimilarTo(va, k, []string{a}), refSimilarTo(v, va, k, map[string]bool{a: true}))
		b := probes[(i+1)%len(probes)]
		if got, r := v.Similarity(a, b), refDot(v, va, v.Vector(b)); math.Float64bits(got) != math.Float64bits(r) {
			t.Fatalf("Similarity(%s, %s) = %v, want %v (bit-exact)", a, b, got, r)
		}
	}
}

// TestVectorKernelEquivalence runs the kernel against the reference on the
// in-memory and segment backings at pool widths nil, 1 and 4, with member
// sets under and over one centroid chunk.
func TestVectorKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mem := kernelStore(rng, 700, 90)
	seg, err := FromVectorColumns(mem.Columns())
	if err != nil {
		t.Fatal(err)
	}
	ids := mem.docIDs()
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	probes := ids[:8]
	for _, backing := range []struct {
		name string
		v    *VectorStore
	}{{"memory", mem}, {"segment", seg}} {
		for _, width := range []int{0, 1, 4} {
			var pool *par.Pool
			if width > 0 {
				pool = par.New(width)
			}
			backing.v.SetPool(pool)
			for _, n := range []int{1, 256, 257, 600} {
				for _, k := range []int{6, 50} {
					t.Run(fmt.Sprintf("%s/w%d/n%d/k%d", backing.name, width, n, k), func(t *testing.T) {
						checkKernel(t, backing.v, ids[:n], probes, k)
					})
				}
			}
			backing.v.SetPool(nil)
			if pool != nil {
				pool.Close()
			}
		}
	}
	if got := mem.ScoreDocs(map[string]float64{"t001": 1}, []string{"missing"}); got[0] != 0 {
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
	v := kernelStore(rng, 400, 60)
	ids := v.docIDs()
	members := ids[:300]
	centroid := v.Centroid(members)
	scores := v.ScoreDocs(centroid, ids)
	sims := make([]float64, 50)
	for i := range sims {
		sims[i] = v.Similarity(ids[i], ids[i+50])
	}
	for round := 0; round < 20; round++ {
		sameVector(t, "Centroid", v.Centroid(members), centroid)
		for i, s := range v.ScoreDocs(centroid, ids) {
			if math.Float64bits(s) != math.Float64bits(scores[i]) {
				t.Fatalf("round %d: ScoreDocs[%s] = %v, was %v", round, ids[i], s, scores[i])
			}
		}
		for i, want := range sims {
			if got := v.Similarity(ids[i], ids[i+50]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d: Similarity(%s, %s) = %v, was %v", round, ids[i], ids[i+50], got, want)
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
		docs := make(map[string]map[string]float64)
		for i := 0; i+1 < len(data); i += 2 {
			d := fmt.Sprintf("d%d", data[i]%16)
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
		names := make([]string, 0, len(docs))
		for d := range docs {
			names = append(names, d)
		}
		sort.Strings(names)
		for _, d := range names {
			b.Add(d, docs[d])
		}
		if len(names) == 0 {
			return
		}
		v := b.Freeze()
		seg, err := FromVectorColumns(v.Columns())
		if err != nil {
			t.Fatal(err)
		}
		pool := par.New(2)
		defer pool.Close()
		for _, s := range []*VectorStore{v, seg} {
			checkKernel(t, s, names[:len(names)/2+1], names, 3)
			s.SetPool(pool)
			checkKernel(t, s, names, names, 3)
			s.SetPool(nil)
		}
	})
}
