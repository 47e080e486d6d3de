package vsm

import (
	"math"
	"slices"
	"strings"

	"magnet/internal/rdf"
	"magnet/internal/schema"
	"magnet/internal/text"
)

// The vectorizing walk on the ID plane. An item's coordinates come from
// its forward rows (rdf.Graph.SubjectPairs): predicate indexes whose
// annotation facts were read once per build, object term IDs, and, for a
// composed attribute, the value's own row reached by term ID → subject ID.
// Every coordinate is a packed integer (kind, path ID, term or word ID or
// axis); its key string is built only when the vector builder first meets
// it, and each distinct literal is analyzed into word IDs once per build.

// Coordinate kinds in a packed coordinate's top two bits.
const (
	packObject uint64 = iota
	packWord
	packNumeric
)

// Numeric axes in a packed numeric coordinate's low bits.
const (
	axisCos uint32 = iota
	axisSin
)

// maxPaths bounds the path IDs a packed coordinate can carry.
const maxPaths = 1 << 30

func pack(kind uint64, path, val uint32) uint64 {
	return kind<<62 | uint64(path)<<32 | uint64(val)
}

func unpack(c uint64) (kind uint64, path, val uint32) {
	return c >> 62, uint32(c>>32) & (maxPaths - 1), uint32(c)
}

// predFacts is what the walk needs to know about a predicate.
type predFacts struct {
	hidden, compose bool
	vt              schema.ValueType
}

// pathStep is a property path's last step: the path it extends (0, the
// empty path, for a direct attribute) and its predicate index.
type pathStep struct {
	parent uint32
	pred   int
}

// walker holds one build's walk state: the path and word tables, interned
// in walk order. Nothing is ordered by their IDs; the vector builder
// numbers terms by key.
type walker struct {
	g        *rdf.Graph
	an       *text.Analyzer
	opts     Options
	preds    []predFacts // by predicate index
	tree     bool
	maxDepth int

	// lits caches each text literal's analyzed word IDs, by term ID.
	lits []*[]uint32

	paths []pathStep // by path ID; 0 is the empty path
	// pathIDs: parent path ID << 32 | predicate index → path ID.
	pathIDs map[uint64]uint32
	words   []string
	wordIDs map[string]uint32

	// pathKeys caches PathKey by path ID; filled after the walk.
	pathKeys []string
}

func (m *Model) newWalker() *walker {
	w := &walker{
		g:       m.g,
		an:      m.an,
		opts:    m.opts,
		preds:   make([]predFacts, m.g.PredicateCount()),
		tree:    m.sch.TreeShaped(),
		lits:    make([]*[]uint32, m.g.TermCount()),
		paths:   []pathStep{{}},
		pathIDs: make(map[uint64]uint32),
		wordIDs: make(map[string]uint32),
	}
	w.maxDepth = m.opts.maxDepth(w.tree)
	for i := range w.preds {
		f := m.sch.FactsAt(i)
		w.preds[i] = predFacts{hidden: f.Hidden, compose: f.Composable}
		if !f.Hidden {
			w.preds[i].vt = m.sch.ValueTypeAt(i)
		}
	}
	return w
}

// scratch is the current item's accumulators, reused from item to item.
type scratch struct {
	// acc maps a coordinate to its index in the current item's row.
	acc map[uint64]int
	// coords and freqs are the current item's row as it grows.
	coords []uint64
	freqs  []float64
	// wordCount and counted tally one attribute's words.
	wordCount []int
	counted   []uint32
	onPath    []uint32
}

func (w *walker) newScratch() *scratch {
	return &scratch{
		acc:    make(map[uint64]int),
		onPath: make([]uint32, 0, 8),
	}
}

// child returns the ID of path parent extended by predicate index pred.
func (w *walker) child(parent uint32, pred int) uint32 {
	k := uint64(parent)<<32 | uint64(pred)
	p, ok := w.pathIDs[k]
	if !ok {
		p = uint32(len(w.paths))
		if p >= maxPaths {
			panic("vsm: too many property paths")
		}
		w.paths = append(w.paths, pathStep{parent, pred})
		w.pathIDs[k] = p
	}
	return p
}

// word returns the ID of an analyzed word.
func (w *walker) word(s string) uint32 {
	id, ok := w.wordIDs[s]
	if !ok {
		id = uint32(len(w.words))
		w.words = append(w.words, s)
		w.wordIDs[s] = id
	}
	return id
}

// literalWords returns text literal tid's analyzed words as word IDs, in
// order with duplicates; each literal is analyzed once per build.
func (w *walker) literalWords(tid uint32, lexical string) []uint32 {
	if ws := w.lits[tid]; ws != nil {
		return *ws
	}
	terms := w.an.Terms(lexical)
	ws := make([]uint32, len(terms))
	for i, t := range terms {
		ws[i] = w.word(t)
	}
	w.lits[tid] = &ws
	return ws
}

// pathKey returns path p's PathKey, built once per path.
func (w *walker) pathKey(p uint32) string {
	for len(w.pathKeys) < len(w.paths) {
		w.pathKeys = append(w.pathKeys, "")
	}
	if p == 0 || w.pathKeys[p] != "" {
		return w.pathKeys[p]
	}
	var path []rdf.IRI
	for q := p; q != 0; q = w.paths[q].parent {
		path = append(path, w.g.PredicateAt(w.paths[q].pred))
	}
	slices.Reverse(path)
	w.pathKeys[p] = PathKey(path)
	return w.pathKeys[p]
}

// key returns packed coordinate c's term key, Coord.Key's string.
func (w *walker) key(c uint64) string {
	kind, path, val := unpack(c)
	var b strings.Builder
	switch kind {
	case packObject:
		b.WriteByte(byte(CoordObject))
	case packWord:
		b.WriteByte(byte(CoordWord))
	default:
		b.WriteByte(byte(CoordNumeric))
	}
	b.WriteString(sepField)
	b.WriteString(w.pathKey(path))
	b.WriteString(sepField)
	switch kind {
	case packObject:
		b.WriteString(w.g.TermAt(val).Key())
	case packWord:
		b.WriteString(w.words[val])
	default:
		if val == axisCos {
			b.WriteString("cos")
		} else {
			b.WriteString("sin")
		}
	}
	return b.String()
}

// itemRow is one item's walk output: its coordinates with raw
// frequencies, summed in walk order (numeric unit-circle coordinates are
// added by finish), the pending unit-circle attributes in walk order, and
// the range of each numeric path's values.
type itemRow struct {
	coords []uint64
	freqs  []float64
	nums   []numAttr
	ranges []pathRange
}

// numAttr is one numeric attribute awaiting its unit-circle pair: its
// path, average value and weight.
type numAttr struct {
	path uint32
	v, w float64
}

// pathRange is the range of one numeric path's values in one item.
type pathRange struct {
	path uint32
	r    Range
}

// rangeOf returns the item's range for path p, adding an empty one on
// first use.
func (row *itemRow) rangeOf(p uint32) *Range {
	for i := range row.ranges {
		if row.ranges[i].path == p {
			return &row.ranges[i].r
		}
	}
	row.ranges = append(row.ranges, pathRange{path: p})
	return &row.ranges[len(row.ranges)-1].r
}

// add sums f into coordinate c, in walk order.
func (row *itemRow) add(sc *scratch, c uint64, f float64) {
	if i, ok := sc.acc[c]; ok {
		row.freqs[i] += f
		return
	}
	sc.acc[c] = len(row.coords)
	row.coords = append(row.coords, c)
	row.freqs = append(row.freqs, f)
}

// vectorize walks item sid's attributes (and composed attributes).
func (w *walker) vectorize(sc *scratch, sid uint32) itemRow {
	row := itemRow{coords: sc.coords[:0], freqs: sc.freqs[:0]}
	clear(sc.acc)
	w.walk(sc, &row, sid, 0, 1, 1, sc.onPath[:0])
	sc.coords, sc.freqs = row.coords, row.freqs
	n := len(row.coords) + 2*len(row.nums) // room for finish
	row.coords = append(make([]uint64, 0, n), row.coords...)
	row.freqs = append(make([]float64, 0, n), row.freqs...)
	return row
}

// walk emits node's attributes at paths extending prefix (depth is the
// length of those paths), then follows resource values of composable
// attributes one level further. onPath holds the nodes on the way down
// (a cycle guard; composition depth is small, so a linear scan beats
// hashing).
func (w *walker) walk(sc *scratch, row *itemRow, node, prefix uint32, depth int, weight float64, onPath []uint32) {
	onPath = append(onPath, node)
	lo, hi := w.g.SubjectPairs(node)
	for pair := lo; pair < hi; pair++ {
		pi := w.g.PairPredicate(pair)
		f := w.preds[pi]
		if f.hidden {
			continue
		}
		objs := w.g.PairObjects(pair)
		n := 0
		for _, t := range objs {
			if w.g.TermAt(t) != nil {
				n++
			}
		}
		if n == 0 {
			continue
		}
		path := w.child(prefix, pi)
		w.emit(sc, row, path, f.vt, objs, n, weight)

		// Composition (§5.1): follow resource values one more level when
		// the property is annotated composable, or the dataset is
		// tree-shaped, within the depth bound.
		if w.opts.DisableCompositions || depth >= w.maxDepth {
			continue
		}
		if !f.compose && !w.tree {
			continue
		}
		childWeight := weight
		if !w.opts.DisablePerAttributeNorm {
			childWeight = weight / float64(n)
		}
		for _, t := range objs {
			obj, ok := w.g.TermSubject(t)
			if !ok || onPathContains(onPath, obj) {
				continue
			}
			w.walk(sc, row, obj, path, depth+1, childWeight, onPath)
		}
	}
}

func onPathContains(onPath []uint32, node uint32) bool {
	for _, n := range onPath {
		if n == node {
			return true
		}
	}
	return false
}

// emit converts one attribute — its path, effective value type and n
// values (object term IDs; corrupt entries skipped) — into coordinate
// frequencies.
//
// Per-attribute normalization (§5.2, "first divide each term frequency by
// the number of values for the attributes"): each attribute contributes
// total mass `weight` regardless of how many values (or, for text, how many
// words) it carries — "for an email, the importance of the subject is the
// same as the importance of the body".
func (w *walker) emit(sc *scratch, row *itemRow, path uint32, vt schema.ValueType, objs []uint32, n int, weight float64) {
	if vt.Numeric() {
		w.emitNumeric(sc, row, path, objs, weight)
		return
	}
	norm := !w.opts.DisablePerAttributeNorm

	// Objects become identity coordinates; text literals are tallied into
	// word coordinates. Non-text literals (booleans, typed numbers on a
	// property whose *effective* type is not numeric, e.g. mixed bags) are
	// treated by identity.
	totalTokens, objects := 0, 0
	for _, t := range objs {
		switch tv := w.g.TermAt(t).(type) {
		case nil:
			continue
		case rdf.Literal:
			if tv.Datatype == "" || tv.Datatype == rdf.XSDString {
				for _, wd := range w.literalWords(t, tv.Lexical) {
					for int(wd) >= len(sc.wordCount) {
						sc.wordCount = append(sc.wordCount, 0)
					}
					if sc.wordCount[wd] == 0 {
						sc.counted = append(sc.counted, wd)
					}
					sc.wordCount[wd]++
					totalTokens++
				}
				continue
			}
		}
		objects++
		f := 1.0
		if norm {
			f = weight / float64(n)
		}
		row.add(sc, pack(packObject, path, t), f)
	}
	// Text: word coordinates. Under per-attribute normalization the word
	// mass of this attribute sums to weight × (textValues/n).
	textValues := n - objects
	for _, wd := range sc.counted {
		cnt := sc.wordCount[wd]
		sc.wordCount[wd] = 0
		f := float64(cnt)
		if norm {
			f = weight * (float64(textValues) / float64(n)) * float64(cnt) / float64(totalTokens)
		}
		row.add(sc, pack(packWord, path, wd), f)
	}
	sc.counted = sc.counted[:0]
}

// emitNumeric observes a numeric attribute's values into the item's range
// for its path and records the attribute's average for the §5.4 encoding:
// the unit-circle pair once every range is known (finish), or, under the
// RawNumeric ablation, a single coordinate carrying the raw magnitude,
// which lets large values swamp every other coordinate after document
// normalization.
func (w *walker) emitNumeric(sc *scratch, row *itemRow, path uint32, objs []uint32, weight float64) {
	r := row.rangeOf(path)
	var sum float64
	cnt := 0
	for _, t := range objs {
		lit, ok := w.g.TermAt(t).(rdf.Literal)
		if !ok {
			continue
		}
		if v, ok := lit.Float(); ok {
			r.observe(v)
			sum += v
			cnt++
		}
	}
	if cnt == 0 {
		return
	}
	avg := sum / float64(cnt)
	if w.opts.RawNumeric {
		if avg < 0 {
			avg = -avg
		}
		row.add(sc, pack(packNumeric, path, axisCos), weight*avg)
		return
	}
	if w.opts.DisablePerAttributeNorm {
		weight = 1
	}
	row.nums = append(row.nums, numAttr{path, avg, weight})
}

// finish adds the item's unit-circle coordinates (§5.4): each numeric
// attribute's average maps into [0, π/2] over its path's range and
// contributes the (cos θ, sin θ) pair, whose norm is always 1 — "all
// values have the same norm but different values have small dot product".
// rangeOf returns a path's range over the indexed items.
func (w *walker) finish(row *itemRow, rangeOf func(path uint32) *Range) {
	base := len(row.coords)
	for _, na := range row.nums {
		theta := rangeOf(na.path).theta(na.v)
		row.addNumeric(base, pack(packNumeric, na.path, axisCos), na.w*math.Cos(theta))
		row.addNumeric(base, pack(packNumeric, na.path, axisSin), na.w*math.Sin(theta))
	}
	row.nums = nil
}

// addNumeric sums f into unit-circle coordinate c among the row's entries
// from base on (the only ones finish adds).
func (row *itemRow) addNumeric(base int, c uint64, f float64) {
	for i := base; i < len(row.coords); i++ {
		if row.coords[i] == c {
			row.freqs[i] += f
			return
		}
	}
	row.coords = append(row.coords, c)
	row.freqs = append(row.freqs, f)
}
