package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"magnet/internal/itemset"
)

// The kernel tests pin SimilarToDoc, Nearest, Centroid, RankTerms,
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
		b.addFreqs(uint32(d), freqs)
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

// refSimilarTo scores every document ID against query and keeps the
// positive scores' top k under (score desc, ID asc).
func refSimilarTo(v *VectorStore, query map[string]float64, k int, exclude map[uint32]bool) []Scored {
	var out []Scored
	for i := 0; i < v.docs(); i++ {
		id := uint32(i)
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

// refRanked returns vec's positively weighted terms by descending weight,
// ties by ascending term, cut to k.
func refRanked(vec map[string]float64, k int) []TermWeight {
	var out []TermWeight
	for term, w := range vec {
		if w > 0 {
			out = append(out, TermWeight{term, w})
		}
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

func sameRanked(t *testing.T, got, want []TermWeight) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("RankTerms: %d terms, want %d\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].Term != want[i].Term || math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) {
			t.Fatalf("RankTerms[%d] = %v, want %v (bit-exact)", i, got[i], want[i])
		}
	}
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

// excludeAllBut returns every document ID of v outside keep, as the set a
// search excludes and as the reference's exclusion map.
func excludeAllBut(v *VectorStore, keep []uint32) (itemset.Set, map[uint32]bool) {
	var ids []uint32
	set := make(map[uint32]bool)
	for id := uint32(0); int(id) < v.docs(); id++ {
		if !slices.Contains(keep, id) {
			ids = append(ids, id)
			set[id] = true
		}
	}
	return itemset.FromSorted(ids), set
}

// checkKernel compares every kernel entry point against the reference on
// one store, with the given members and probe documents. Nearest runs
// excluding the members and excluding nothing, which read postings on the
// test stores, and excluding every ID but the probes, which scans their
// few rows.
func checkKernel(t *testing.T, v *VectorStore, members itemset.Set, probes []uint32, k int) {
	t.Helper()
	want := refCentroid(v, members.Slice())
	sameVector(t, "Centroid", v.centroidVector(members), want)
	c := v.Centroid(members)
	sameRanked(t, v.rankedTerms(c, k), refRanked(want, k))

	memberSet := make(map[uint32]bool, members.Len())
	for _, id := range members.Slice() {
		memberSet[id] = true
	}
	sameScored(t, "Nearest", v.Nearest(c, k, members), refSimilarTo(v, want, k, memberSet))
	sameScored(t, "Nearest(keep members)", v.Nearest(c, k, itemset.Set{}), refSimilarTo(v, want, k, nil))
	others, otherSet := excludeAllBut(v, probes)
	sameScored(t, "Nearest(probes only)", v.Nearest(c, k, others), refSimilarTo(v, want, k, otherSet))

	probeSet := itemset.FromUnsorted(slices.Clone(probes))
	scores := v.ScoreDocs(c, probeSet)
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
// ("segment"), with member sets under and over one centroid chunk. Each
// pair of stores is new for each warm-up count w: before the checks, the
// stores serve w rounds of every member set's centroid and search, so the
// recycled accumulators and score arrays must come back clean (w0 checks
// a store whose scratch is still empty).
func TestVectorKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := kernelBuilder(rng, 700, 90)
	ids := b.docIDs()
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	probes := ids[:8]
	var sets []itemset.Set
	for _, n := range []int{1, 256, 257, 600} {
		sets = append(sets, itemset.FromUnsorted(slices.Clone(ids[:n])))
	}
	for _, warm := range []int{0, 1, 4} {
		seg, err := FromVectorColumns(b.Columns())
		if err != nil {
			t.Fatal(err)
		}
		for _, backing := range []struct {
			name string
			v    *VectorStore
		}{{"memory", b.Freeze()}, {"segment", seg}} {
			for range warm {
				for _, members := range sets {
					backing.v.Nearest(backing.v.Centroid(members), 50, members)
				}
			}
			for _, members := range sets {
				for _, k := range []int{6, 50} {
					t.Run(fmt.Sprintf("%s/w%d/n%d/k%d", backing.name, warm, members.Len(), k), func(t *testing.T) {
						checkKernel(t, backing.v, members, probes, k)
					})
				}
			}
		}
	}
	absent := itemset.FromSorted([]uint32{5000})
	v := b.Freeze()
	if got := v.ScoreDocs(v.Centroid(itemset.FromUnsorted(slices.Clone(ids[:5]))), absent); got[0] != 0 {
		t.Errorf("ScoreDocs(absent) = %v, want 0", got[0])
	}
}

// TestSearchKernelChoice pins the work each search does: it reads the
// query terms' postings or the rows of the IDs not excluded, whichever
// holds fewer elements, and counts exactly those elements. SimilarToDoc
// reads the postings of the document's terms; a Nearest that excludes all
// but two rows reads those two rows. Both agree with the reference.
func TestSearchKernelChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := kernelBuilder(rng, 300, 40).Freeze()
	c := v.Columns()
	elems := func(search func() []Scored) ([]Scored, uint64) {
		before := searchElems.Value()
		got := search()
		return got, searchElems.Value() - before
	}
	for _, id := range []uint32{0, 17, 123, 299} {
		df := 0
		for _, term := range v.row(id).terms {
			df += int(c.PostStart[term+1] - c.PostStart[term])
		}
		if rest := len(c.RowTerm) - len(v.row(id).terms); df >= rest {
			t.Fatalf("doc %d: posting mass %d not below the other rows' %d; the store no longer tests the choice", id, df, rest)
		}
		got, n := elems(func() []Scored { return v.SimilarToDoc(id, 10) })
		if n != uint64(df) {
			t.Errorf("SimilarToDoc(%d) read %d elements, want its terms' posting mass %d", id, n, df)
		}
		sameScored(t, fmt.Sprintf("SimilarToDoc(%d)", id), got, refSimilarTo(v, v.vector(id), 10, map[uint32]bool{id: true}))
	}

	members := itemset.FromSorted([]uint32{3, 4, 5, 6, 7, 8})
	cen := v.Centroid(members)
	keep := []uint32{40, 250}
	excl, exclSet := excludeAllBut(v, keep)
	rows := len(v.row(keep[0]).terms) + len(v.row(keep[1]).terms)
	got, n := elems(func() []Scored { return v.Nearest(cen, 10, excl) })
	if n != uint64(rows) {
		t.Errorf("Nearest keeping rows %v read %d elements, want their lengths' sum %d", keep, n, rows)
	}
	sameScored(t, "Nearest(two rows)", got, refSimilarTo(v, v.centroidVector(members), 10, exclSet))
	if len(got) == 0 {
		t.Error("Nearest(two rows) found nothing; pick rows sharing a term with the centroid")
	}
}

// TestVectorSumDeterminism calls each float-summing path repeatedly — the
// centroid and its norm, Similarity, and ScoreDocs (the soft-results
// ranking) — and requires the same bits every time. Map iteration order
// changes between calls, so any sum that followed it would drift in its
// low bits.
func TestVectorSumDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := kernelBuilder(rng, 400, 60)
	v := b.Freeze()
	ids := b.docIDs()
	all := itemset.FromSorted(ids)
	members := itemset.FromSorted(ids[:300])
	centroid := v.centroidVector(members)
	scores := v.ScoreDocs(v.Centroid(members), all)
	sims := make([]float64, 50)
	for i := range sims {
		sims[i] = v.Similarity(ids[i], ids[i+50])
	}
	for round := 0; round < 20; round++ {
		sameVector(t, "Centroid", v.centroidVector(members), centroid)
		for i, s := range v.ScoreDocs(v.Centroid(members), all) {
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
// the reference.
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
			b.addFreqs(d, docs[d])
		}
		if len(names) == 0 {
			return
		}
		v := b.Freeze()
		checkKernel(t, v, itemset.FromSorted(names[:len(names)/2+1]), names, 3)
		checkKernel(t, v, itemset.FromSorted(names), names, 3)
	})
}

// TestSearchDropsRowsSharingNoTerm pins what the similarity scan relies on
// instead of a candidate list: a row sharing no term with the query scores
// zero and is dropped. Even IDs hold words a0…a5, odd IDs words b0…b5 plus
// pinned coordinates whose weights are negated in the image, so a query
// from the even group meets them only as negative-times-zero products.
// ID 40, past a run of empty rows, holds a word no other document has;
// ID 41 too, with its weight made NaN as in a damaged image, which must
// not cut the top k. Each weight is forged alike in the rows and in the
// postings, so the image stays consistent and either kernel meets it.
func TestSearchDropsRowsSharingNoTerm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewVectorBuilder()
	b.PinnedPrefix = "num|"
	for id := uint32(0); id < 20; id++ {
		freqs := make(map[string]float64)
		group := "a"
		if id%2 == 1 {
			group = "b"
			freqs["num|x"] = 0.25 + rng.Float64()
			freqs["num|y"] = 0.25 + rng.Float64()
		}
		for n := 2 + rng.Intn(3); n > 0; n-- {
			freqs[fmt.Sprintf("%s%d", group, rng.Intn(6))] = float64(1 + rng.Intn(3))
		}
		b.addFreqs(id, freqs)
	}
	const loner = 40
	b.addFreqs(loner, map[string]float64{"solo": 1})
	b.addFreqs(loner+1, map[string]float64{"damaged": 1})

	c := b.Columns()
	forge := func(term uint32, w *float64) {
		switch b.terms.Key(term) {
		case "num|x", "num|y":
			*w = -*w
		case "damaged":
			*w = math.NaN()
		}
	}
	for i, term := range c.RowTerm {
		forge(term, &c.RowWeight[i])
	}
	for term := 0; term+1 < len(c.PostStart); term++ {
		for i := c.PostStart[term]; i < c.PostStart[term+1]; i++ {
			forge(uint32(term), &c.PostWeight[i])
		}
	}
	ids := b.docIDs()
	all := itemset.FromSorted(ids)
	v, err := FromVectorColumns(c)
	if err != nil {
		t.Fatal(err)
	}
	sameGroup := func(what string, from uint32, got []Scored) {
		t.Helper()
		if len(got) == 0 {
			t.Fatalf("%s: nothing found", what)
		}
		for _, s := range got {
			if s.ID%2 != from%2 || s.ID >= 20 {
				t.Fatalf("%s: found %d, across the groups: %v", what, s.ID, got)
			}
		}
	}
	for _, id := range ids[:20] {
		for _, k := range []int{3, 30} {
			got := v.SimilarToDoc(id, k)
			what := fmt.Sprintf("SimilarToDoc(%d, %d)", id, k)
			sameScored(t, fmt.Sprintf("%s", what), got, refSimilarTo(v, v.vector(id), k, map[uint32]bool{id: true}))
			sameGroup(what, id, got)
		}
	}
	if got := v.SimilarToDoc(loner, 30); len(got) != 0 {
		t.Fatalf("SimilarToDoc(%d) = %v, want nothing: no other document shares its word", loner, got)
	}
	for _, group := range []uint32{0, 1} {
		var members []uint32
		excl := make(map[uint32]bool)
		for _, id := range ids[:20] {
			if id%2 == group && id%4 < 2 {
				members = append(members, id)
				excl[id] = true
			}
		}
		set := itemset.FromSorted(members)
		cen := v.Centroid(set)
		what := fmt.Sprintf("Nearest(group %d)", group)
		got := v.Nearest(cen, 30, set)
		sameScored(t, fmt.Sprintf("%s", what), got, refSimilarTo(v, v.centroidVector(set), 30, excl))
		sameGroup(what, group, got)
		kept := v.Nearest(cen, 30, itemset.Set{})
		sameScored(t, fmt.Sprintf("%s keeping members", what), kept, refSimilarTo(v, v.centroidVector(set), 30, nil))
		sameGroup(what+" keeping members", group, kept)
		if got := v.Nearest(cen, 30, all); len(got) != 0 {
			t.Fatalf("%s excluding every document = %v, want nothing", what, got)
		}
	}
}
