package vsm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"magnet/internal/index"
	"magnet/internal/rdf"
	"magnet/internal/schema"
	"magnet/internal/text"
)

// rawVector returns item's raw coordinate frequencies, keyed by coordinate
// key, as IndexAll hands them to the vector builder (zero entries
// included), with the model's current numeric ranges: a path they lack
// encodes as a single-value range. An unknown item has none.
func (m *Model) rawVector(item rdf.IRI) map[string]float64 {
	w := m.newWalker()
	return m.rawVectorWith(w, w.newScratch(), item)
}

// rawVectorWith is rawVector on a walker and scratch the caller reuses
// across items, as IndexAll does.
func (m *Model) rawVectorWith(w *walker, sc *scratch, item rdf.IRI) map[string]float64 {
	out := make(map[string]float64)
	sid, ok := m.g.SubjectID(item)
	if !ok {
		return out
	}
	row := w.vectorize(sc, sid)
	w.finish(&row, func(p uint32) *Range {
		if r := m.stats[w.pathKey(p)]; r != nil {
			return r
		}
		// An empty range maps every value to θ = 0, as a single-value
		// range does.
		return &Range{}
	})
	for i, c := range row.coords {
		out[w.key(c)] = row.freqs[i]
	}
	return out
}

// --- The IRI walk oracle ----------------------------------------------------

// iriOracle is the vectorizing walk as it was written over IRIs: every hop
// reads the graph by subject IRI, every predicate's annotations by IRI,
// and every coordinate is summed into a map under its key string. It is
// kept, test-only, as the reference the ID-plane walk must match bit for
// bit.
type iriOracle struct {
	g     *rdf.Graph
	sch   *schema.Store
	an    *text.Analyzer
	opts  Options
	stats map[string]*Range
}

type oracleVisitor func(path []rdf.IRI, vt schema.ValueType, values []rdf.Term, weight float64)

// index returns each item's raw vector and the numeric ranges, as the old
// IndexAll computed them: a stats pass over every item, then each item's
// vector.
func (o *iriOracle) index(items []rdf.IRI) []map[string]float64 {
	o.stats = make(map[string]*Range)
	for _, it := range items {
		o.walk(it, func(path []rdf.IRI, vt schema.ValueType, values []rdf.Term, _ float64) {
			if !vt.Numeric() {
				return
			}
			key := PathKey(path)
			r := o.stats[key]
			if r == nil {
				r = &Range{}
				o.stats[key] = r
			}
			for _, v := range values {
				if lit, ok := v.(rdf.Literal); ok {
					if f, ok := lit.Float(); ok {
						r.observe(f)
					}
				}
			}
		})
	}
	vecs := make([]map[string]float64, len(items))
	for i, it := range items {
		out := make(map[string]float64)
		o.walk(it, func(path []rdf.IRI, vt schema.ValueType, values []rdf.Term, weight float64) {
			o.emit(path, vt, values, weight, out)
		})
		vecs[i] = out
	}
	return vecs
}

func (o *iriOracle) walk(node rdf.IRI, v oracleVisitor) {
	o.walkRec(node, nil, make([]rdf.IRI, 0, 8), 1, v)
}

func (o *iriOracle) walkRec(node rdf.IRI, prefix, onPath []rdf.IRI, weight float64, v oracleVisitor) {
	onPath = append(onPath, node)
	tree := o.sch.TreeShaped()
	maxDepth := o.opts.maxDepth(tree)
	for _, p := range o.g.PredicatesOf(node) {
		if o.sch.Hidden(p) {
			continue
		}
		values := o.g.Objects(node, p)
		if len(values) == 0 {
			continue
		}
		path := append(append([]rdf.IRI{}, prefix...), p)
		v(path, o.sch.ValueType(p), values, weight)
		if o.opts.DisableCompositions || len(path) >= maxDepth {
			continue
		}
		if !o.sch.Composable(p) && !tree {
			continue
		}
		childWeight := weight
		if !o.opts.DisablePerAttributeNorm {
			childWeight = weight / float64(len(values))
		}
		for _, val := range values {
			obj, ok := val.(rdf.IRI)
			if !ok || containsIRI(onPath, obj) {
				continue
			}
			o.walkRec(obj, path, onPath, childWeight, v)
		}
	}
}

func containsIRI(path []rdf.IRI, node rdf.IRI) bool {
	for _, n := range path {
		if n == node {
			return true
		}
	}
	return false
}

func (o *iriOracle) emit(path []rdf.IRI, vt schema.ValueType, values []rdf.Term, weight float64, out map[string]float64) {
	if vt.Numeric() {
		f, ok := oracleAverage(values)
		if !ok {
			return
		}
		if o.opts.RawNumeric {
			if f < 0 {
				f = -f
			}
			out[Coord{Kind: CoordNumeric, Path: path, Axis: "cos"}.Key()] += weight * f
			return
		}
		r := o.stats[PathKey(path)]
		if r == nil {
			r = &Range{}
			r.observe(f)
		}
		theta := r.theta(f)
		w := weight
		if o.opts.DisablePerAttributeNorm {
			w = 1
		}
		out[Coord{Kind: CoordNumeric, Path: path, Axis: "cos"}.Key()] += w * math.Cos(theta)
		out[Coord{Kind: CoordNumeric, Path: path, Axis: "sin"}.Key()] += w * math.Sin(theta)
		return
	}
	norm := !o.opts.DisablePerAttributeNorm
	tokenCounts := make(map[string]int)
	totalTokens := 0
	var objects []rdf.Term
	for _, val := range values {
		if tv, ok := val.(rdf.Literal); ok && (tv.Datatype == "" || tv.Datatype == rdf.XSDString) {
			for _, tok := range o.an.Terms(tv.Lexical) {
				tokenCounts[tok]++
				totalTokens++
			}
			continue
		}
		objects = append(objects, val)
	}
	for _, obj := range objects {
		f := 1.0
		if norm {
			f = weight / float64(len(values))
		}
		out[Coord{Kind: CoordObject, Path: path, Value: obj}.Key()] += f
	}
	if totalTokens > 0 {
		textValues := len(values) - len(objects)
		for tok, cnt := range tokenCounts {
			f := float64(cnt)
			if norm {
				f = weight * (float64(textValues) / float64(len(values))) * float64(cnt) / float64(totalTokens)
			}
			out[Coord{Kind: CoordWord, Path: path, Word: tok}.Key()] += f
		}
	}
}

func oracleAverage(values []rdf.Term) (float64, bool) {
	var sum float64
	n := 0
	for _, v := range values {
		if lit, ok := v.(rdf.Literal); ok {
			if f, ok := lit.Float(); ok {
				sum += f
				n++
			}
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// oracleColumns stores the oracle's vectors in ascending ID order, each
// map handed to the builder as a row numbered by key.
func oracleColumns(ids []uint32, vecs []map[string]float64) index.VectorColumns {
	b := index.NewVectorBuilder()
	b.PinnedPrefix = PinnedPrefix
	var names []string
	num := make(map[string]uint64)
	name := func(c uint64) string { return names[c] }
	for i, id := range ids {
		var terms []uint64
		var freqs []float64
		for k, f := range vecs[i] {
			n, ok := num[k]
			if !ok {
				n = uint64(len(names))
				num[k] = n
				names = append(names, k)
			}
			terms = append(terms, n)
			freqs = append(freqs, f)
		}
		b.Add(id, terms, freqs, name)
	}
	return b.Columns()
}

// --- Random graphs ----------------------------------------------------------

const rg = "http://example.org/rand/"

// randomGraph builds a seeded graph of typed items and untyped nodes:
// several composable predicates that link items and nodes into cycles, a
// hidden predicate, multi-valued text, object, boolean and blank-node
// attributes, an annotated numeric predicate whose values mix integers,
// decimals, doubles, dates, malformed and non-finite numerals, plain
// strings and IRIs, an inferred numeric predicate, and, on some seeds, the
// tree-shaped annotation. It returns the items.
func randomGraph(rng *rand.Rand) (*rdf.Graph, []rdf.IRI) {
	gb := rdf.NewBuilder()
	nItems, nNodes := 8+rng.Intn(30), 3+rng.Intn(12)
	var items, nodes []rdf.IRI
	for i := 0; i < nItems; i++ {
		items = append(items, rdf.IRI(fmt.Sprintf("%sitem/%03d", rg, i)))
	}
	for i := 0; i < nNodes; i++ {
		nodes = append(nodes, rdf.IRI(fmt.Sprintf("%snode/%02d", rg, i)))
	}
	all := append(append([]rdf.IRI{}, items...), nodes...)
	links := []rdf.IRI{rg + "link/a", rg + "link/b", rg + "link/c"}
	words := []string{"apple", "pie", "the", "baked", "baking", "crust", "a", "", "sweet apples", "tart"}
	day := time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC)
	numbers := []rdf.Term{
		rdf.NewInteger(-3), rdf.NewInteger(0), rdf.NewInteger(7), rdf.NewInteger(40),
		rdf.Literal{Lexical: "2.25", Datatype: rdf.XSDDecimal},
		rdf.Literal{Lexical: "-0", Datatype: rdf.XSDDouble},
		rdf.Literal{Lexical: "1e3", Datatype: rdf.XSDDouble},
		rdf.Literal{Lexical: "NaN", Datatype: rdf.XSDDouble},
		rdf.Literal{Lexical: "-Inf", Datatype: rdf.XSDDouble},
		rdf.Literal{Lexical: "12x", Datatype: rdf.XSDInteger},
		rdf.NewTime(day), rdf.NewTime(day.AddDate(0, 2, 3)),
		rdf.NewString("19"), rdf.IRI(rg + "many"),
	}
	pNum, pInferred, pHidden := rdf.IRI(rg+"num"), rdf.IRI(rg+"count"), rdf.IRI(rg+"secret")
	pText, pTag, pFlag, pBlank := rdf.IRI(rg+"text"), rdf.IRI(rg+"tag"), rdf.IRI(rg+"flag"), rdf.IRI(rg+"anon")
	for _, s := range all {
		if rng.Intn(4) > 0 || len(items) > 0 && s == items[0] {
			for _, p := range links {
				for j := rng.Intn(3); j > 0; j-- {
					gb.Add(s, p, all[rng.Intn(len(all))])
				}
			}
		}
		for j := rng.Intn(3); j > 0; j-- {
			gb.Add(s, pText, rdf.NewString(words[rng.Intn(len(words))]+" "+words[rng.Intn(len(words))]))
		}
		for j := rng.Intn(3); j > 0; j-- {
			gb.Add(s, pTag, rdf.IRI(fmt.Sprintf("%stag/%d", rg, rng.Intn(5))))
		}
		for j := rng.Intn(4); j > 0; j-- {
			gb.Add(s, pNum, numbers[rng.Intn(len(numbers))])
		}
		if rng.Intn(2) == 0 {
			gb.Add(s, pInferred, rdf.NewInteger(int64(rng.Intn(50))))
		}
		if rng.Intn(3) == 0 {
			gb.Add(s, pHidden, rdf.NewString("hidden words "+words[rng.Intn(len(words))]))
		}
		if rng.Intn(4) == 0 {
			gb.Add(s, pFlag, rdf.NewBool(rng.Intn(2) == 0))
			gb.Add(s, pBlank, rdf.Blank(fmt.Sprintf("b%d", rng.Intn(3))))
		}
	}
	for _, it := range items {
		gb.Add(it, rdf.Type, rdf.IRI(rg+"Item"))
	}
	for _, p := range links {
		if rng.Intn(3) > 0 {
			schema.SetCompose(gb, p)
		}
	}
	schema.SetCompose(gb, pTag) // composes into values with no row
	schema.SetHidden(gb, pHidden)
	schema.SetValueType(gb, pNum, schema.Float)
	if rng.Intn(3) == 0 {
		schema.SetTreeShaped(gb)
	}
	return gb.Freeze(), items
}

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestWalkMatchesIRIOracle checks IndexAll's ID-plane walk against the IRI
// walk it replaced, on seeded random graphs at MaxDepth 0–4 and under
// every ablation switch: each item's raw row (every coordinate's sum, bit
// for bit), the store's term order, rows and weights bit for bit, and the
// numeric ranges.
func TestWalkMatchesIRIOracle(t *testing.T) {
	configs := []Options{
		{}, {MaxDepth: 1}, {MaxDepth: 2}, {MaxDepth: 3}, {MaxDepth: 4},
		{DisableCompositions: true},
		{DisablePerAttributeNorm: true, MaxDepth: 3},
		{RawNumeric: true, MaxDepth: 3},
	}
	rng := rand.New(rand.NewSource(31))
	for graph := 0; graph < 30; graph++ {
		g, items := randomGraph(rng)
		ids := g.SubjectIDsOf(items)
		sorted := g.SubjectsFromIDs(ids.Slice())
		for _, opts := range configs {
			sch := schema.NewStore(g)
			o := &iriOracle{g: g, sch: schema.NewStore(g), an: text.DefaultAnalyzer, opts: opts}
			want := o.index(sorted)

			m := New(g, sch, opts)
			m.IndexAll(ids)
			where := fmt.Sprintf("graph %d %+v", graph, opts)

			for i, it := range sorted {
				got := m.rawVector(it)
				if len(got) != len(want[i]) {
					t.Fatalf("%s: %s has %d coordinates, oracle %d", where, it, len(got), len(want[i]))
				}
				for k, f := range want[i] {
					if g, ok := got[k]; !ok || math.Float64bits(g) != math.Float64bits(f) {
						t.Fatalf("%s: %s coordinate %q = %v, oracle %v", where, it, k, g, f)
					}
				}
			}
			gotCols, wantCols := m.Store().Columns(), oracleColumns(ids.Slice(), want)
			if !reflect.DeepEqual(gotCols.Terms, wantCols.Terms) || !reflect.DeepEqual(gotCols.RowStart, wantCols.RowStart) ||
				!reflect.DeepEqual(gotCols.RowTerm, wantCols.RowTerm) || !sameBits(gotCols.RowWeight, wantCols.RowWeight) {
				t.Fatalf("%s: vector columns differ from the oracle's", where)
			}
			gotRanges := m.Ranges()
			if len(gotRanges) != len(o.stats) {
				t.Fatalf("%s: %d ranges, oracle %d", where, len(gotRanges), len(o.stats))
			}
			for k, r := range o.stats {
				g, ok := gotRanges[k]
				if !ok || g.Count != r.Count || !sameBits([]float64{g.Min, g.Max}, []float64{r.Min, r.Max}) {
					t.Fatalf("%s: range %q = %+v, oracle %+v", where, k, g, *r)
				}
			}
		}
	}
}

// TestWalkOracleSeesCompositions guards the oracle test's reach: across its
// graphs, composed coordinates, numeric coordinates summed from more than
// one attribute, and hidden predicates all occur.
func TestWalkOracleSeesCompositions(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var composed, multi, hidden int
	for graph := 0; graph < 30; graph++ {
		g, items := randomGraph(rng)
		sch := schema.NewStore(g)
		o := &iriOracle{g: g, sch: sch, an: text.DefaultAnalyzer, opts: Options{MaxDepth: 3}}
		o.stats = make(map[string]*Range)
		for _, it := range g.SubjectsFromIDs(g.SubjectIDsOf(items).Slice()) {
			seen := make(map[string]int)
			o.walk(it, func(path []rdf.IRI, vt schema.ValueType, _ []rdf.Term, _ float64) {
				if len(path) > 1 {
					composed++
				}
				if vt.Numeric() {
					seen[PathKey(path)]++
				}
			})
			for _, n := range seen {
				if n > 1 {
					multi++
				}
			}
			for _, p := range g.PredicatesOf(it) {
				if sch.Hidden(p) {
					hidden++
				}
			}
		}
	}
	if composed == 0 || multi == 0 || hidden == 0 {
		t.Fatalf("composed %d, repeated numeric paths %d, hidden %d: the random graphs miss a case", composed, multi, hidden)
	}
}
