package segment

import (
	"math"
	"reflect"
	"testing"

	"magnet/internal/index"
	"magnet/internal/itemset"
	"magnet/internal/rdf"
)

// fuzzImage compiles a small graph, text index and vector store: typed
// items, literal and IRI objects, a removed statement (its subject left
// with no triple), two text fields and a pinned vector coordinate.
func fuzzImage() Data {
	const ns = "urn:x:"
	b := rdf.NewBuilder()
	add := func(s, p string, o rdf.Term) { b.Add(rdf.IRI(ns+s), rdf.IRI(ns+p), o) }
	add("a", "cuisine", rdf.IRI(ns+"Greek"))
	add("b", "cuisine", rdf.IRI(ns+"Greek"))
	add("c", "cuisine", rdf.IRI(ns+"Thai"))
	add("a", "title", rdf.NewString("lemon feta salad"))
	add("b", "title", rdf.Literal{Lexical: "olive bread", Lang: "en"})
	add("c", "servings", rdf.NewInteger(4))
	add("Greek", "label", rdf.NewString("Greek"))
	b.Add(rdf.IRI(ns+"a"), rdf.Type, rdf.IRI(ns+"Recipe"))
	b.Add(rdf.IRI(ns+"a"), rdf.Label, rdf.NewString("Salad"))
	add("dead", "title", rdf.NewString("gone"))
	b.Remove(rdf.IRI(ns+"dead"), rdf.IRI(ns+"title"), rdf.NewString("gone"))

	tb := index.NewTextBuilder(nil)
	tb.Index(ns+"a", "title", "lemon feta salad")
	tb.Index(ns+"a", "body", "whisk the lemons")
	tb.Index(ns+"b", "title", "olive bread")

	g := b.Freeze()
	id := func(s string) uint32 {
		n, _ := g.SubjectID(rdf.IRI(ns + s))
		return n
	}
	vb := index.NewVectorBuilder()
	vb.PinnedPrefix = "num|"
	vb.Add(id("a"), map[string]float64{"feta": 2, "lemon": 1, "num|x": 0.5})
	vb.Add(id("b"), map[string]float64{"olive": 1, "lemon": 3})
	vb.Add(id("c"), map[string]float64{"rice": 1, "num|x": 0.25})
	return Data{Graph: g.Columns(), Text: tb.Columns(), Vectors: vb.Columns()}
}

// imageColumns copies every slice column of d (nested interner tables
// included) and returns the copies, so flips never touch the original.
func imageColumns(d *Data) []reflect.Value {
	var cols []reflect.Value
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
			reflect.Copy(c, v)
			v.Set(c)
			if v.Len() > 0 {
				cols = append(cols, v)
			}
		}
	}
	walk(reflect.ValueOf(&d.Graph).Elem())
	walk(reflect.ValueOf(&d.Text).Elem())
	walk(reflect.ValueOf(&d.Vectors).Elem())
	return cols
}

// flip XORs one byte of one element: ops[0] picks the column, ops[1:3]
// the element, ops[3] the byte within it, and ops[4] the mask.
func flip(cols []reflect.Value, ops []byte) {
	col := cols[int(ops[0])%len(cols)]
	el := col.Index((int(ops[1])<<8 | int(ops[2])) % col.Len())
	shift := 8 * uint(ops[3]%uint8(el.Type().Size()))
	mask := uint64(ops[4]) << shift
	switch el.Kind() {
	case reflect.Uint8, reflect.Uint32, reflect.Uint64:
		el.SetUint(el.Uint() ^ mask)
	case reflect.Float64:
		el.SetFloat(math.Float64frombits(math.Float64bits(el.Float()) ^ mask))
	}
}

// FuzzColumnImage flips bytes in a compiled graph, text and vector image,
// opens it with FromColumns, and drives every read accessor. Corrupt
// offsets and IDs must surface as absent data: opening may fail, reading
// must never panic.
func FuzzColumnImage(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0xff})
	f.Add([]byte{3, 0, 1, 3, 0x80, 9, 0, 2, 0, 0x7f})
	f.Add([]byte{17, 0, 0, 1, 0x10, 30, 0, 3, 7, 0xff, 41, 0, 1, 0, 0x01})
	base := fuzzImage()
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := base
		cols := imageColumns(&d)
		for ; len(ops) >= 5; ops = ops[5:] {
			flip(cols, ops)
		}
		if g, err := rdf.FromColumns(d.Graph); err == nil {
			readGraph(g)
		}
		if ix, err := index.FromTextColumns(nil, d.Text); err == nil {
			readText(ix)
		}
		if v, err := index.FromVectorColumns(d.Vectors, nil); err == nil {
			readVectors(v)
		}
	})
}

func readGraph(g *rdf.Graph) {
	subjects := append(g.SubjectsFromIDs(g.AllSubjectIDs().Slice()), "urn:x:a", "urn:x:dead", "urn:x:none")
	preds := append(g.Predicates(), rdf.Type, rdf.Label, "urn:x:cuisine")
	g.Len()
	g.AllSubjectIDs().Len()
	g.SubjectsFromIDs(g.SubjectIDsOf(subjects).Slice())
	for id := uint32(0); id < uint32(g.SubjectTable().Len())+2; id++ {
		g.SubjectByID(id)
	}
	g.AllStatements()
	n := 0
	g.ForEach(func(rdf.Statement) bool { n++; return n < 64 })
	for _, p := range preds {
		g.ObjectsOf(p)
		g.SubjectsWithProperty(p)
		g.ForEachValuePosting(p, func(o rdf.Term, subs itemset.Set) bool {
			g.Subjects(p, o)
			g.SubjectCount(p, o)
			g.SubjectIDSet(p, o).Len()
			g.TermLabel(o)
			return subs.Len() >= 0
		})
	}
	for _, s := range subjects {
		g.SubjectID(s)
		g.HasSubject(s)
		g.Label(s)
		g.HasLabel(s)
		for _, p := range append(g.PredicatesOf(s), preds...) {
			for _, o := range g.Objects(s, p) {
				g.Has(s, p, o)
			}
			g.Object(s, p)
			g.ObjectCount(s, p)
		}
	}
}

func readText(ix *index.TextIndex) {
	for _, q := range []string{"lemon", "feta salad", "olive", "whisk", "absent"} {
		for _, field := range []string{index.AnyField, "title", "body", "none"} {
			ix.Matching(q, field)
			ix.MatchingTerm(q, field)
			ix.Search(q, field, 3)
			ix.Search(q, field, 0)
		}
		ix.Surface(q)
	}
	for _, doc := range []string{"urn:x:a", "urn:x:b", "urn:x:none"} {
		for _, field := range append(ix.Fields(doc), "none") {
			ix.FieldTermCounts(doc, field)
		}
	}
}

func readVectors(v *index.VectorStore) {
	docs := itemset.FromSorted([]uint32{0, 1, 2, 3, 4, 1 << 20})
	for _, id := range docs.Slice() {
		v.Weights(id)
		v.Similarity(id, 1)
		v.SharedTerms(id, 2)
		v.SimilarToDoc(id, 2)
	}
	q := map[string]float64{"lemon": 0.6, "feta": 0.8, "num|x": 0.1}
	v.Centroid(docs)
	v.SimilarToCentroid(docs, 2, true)
	v.ScoreDocs(q, docs)
}
