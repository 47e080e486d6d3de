package segment

// Segment-set assembly: the layer that maps the engine's columnar images
// (rdf.GraphColumns, index.TextColumns, index.VectorColumns, the item
// universe, numeric range statistics) onto segment files and back.
//
// A set directory holds:
//
//	MANIFEST.json  what was compiled, parameters, per-file checksums
//	graph.seg      triple store: interners, POS and SPO indexes
//	text.seg       inverted text index: postings, df, surfaces, doc columns
//	vectors.seg    vector store: tf·idf rows, retrieval postings
//	meta.seg       item universe posting, numeric range statistics
//
// BuildDir writes all four files plus the manifest; OpenDir maps them and
// reassembles the column structs as zero-copy slices into the mappings.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"magnet/internal/ids"
	"magnet/internal/index"
	"magnet/internal/rdf"
)

// Segment file names within a set directory.
const (
	GraphSeg   = "graph.seg"
	TextSeg    = "text.seg"
	VectorsSeg = "vectors.seg"
	MetaSeg    = "meta.seg"
)

// NumericRange is one serialized vsm numeric range statistic. The segment
// package stays below internal/vsm in the import graph, so the conversion
// to vsm.Range happens in core.
type NumericRange struct {
	Key   string  `json:"key"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Count int     `json:"count"`
}

// Data is everything a segment set persists, in columnar form.
type Data struct {
	Dataset          string
	Params           map[string]int64
	IndexAllSubjects bool
	Items            []uint32 // sorted item universe (graph subject IDs)
	Graph            rdf.GraphColumns
	Text             index.TextColumns
	Vectors          index.VectorColumns
	Ranges           []NumericRange
}

// Set is an opened segment set: the reassembled columns plus the mapped
// files backing them. Column slices alias the mappings and stay valid until
// Close.
type Set struct {
	Dir      string
	Manifest Manifest
	Data     Data
	files    []*File
}

// BuildDir writes the segment set for d into dir (created if needed) and
// returns the manifest it wrote. Files are written atomically; the manifest
// is written last, so a crashed build never yields an openable set.
func BuildDir(dir string, d Data) (Manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Manifest{}, err
	}
	m := Manifest{
		Format:           Version,
		Tool:             "magnet-build",
		Dataset:          d.Dataset,
		Params:           d.Params,
		IndexAllSubjects: d.IndexAllSubjects,
		Items:            len(d.Items),
		Triples:          int(d.Graph.Triples),
	}
	write := func(name string, fill func(w *Writer) error) error {
		w := NewWriter()
		if err := fill(w); err != nil {
			return err
		}
		size, crc, err := w.WriteFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("segment: write %s: %w", name, err)
		}
		m.Files = append(m.Files, ManifestFile{Name: name, Bytes: size, CRC: crc})
		return nil
	}
	if err := write(GraphSeg, func(w *Writer) error { addGraph(w, d.Graph); return nil }); err != nil {
		return Manifest{}, err
	}
	if err := write(TextSeg, func(w *Writer) error { addText(w, d.Text); return nil }); err != nil {
		return Manifest{}, err
	}
	if err := write(VectorsSeg, func(w *Writer) error { addVectors(w, d.Vectors); return nil }); err != nil {
		return Manifest{}, err
	}
	if err := write(MetaSeg, func(w *Writer) error { return addMeta(w, d) }); err != nil {
		return Manifest{}, err
	}
	if err := WriteManifest(dir, m); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

func addInterner(w *Writer, prefix string, c ids.Columns) {
	w.AddU32(prefix+".off", c.Off)
	w.AddBytes(prefix+".blob", c.Blob)
	w.AddU32(prefix+".sorted", c.Sorted)
}

func addGraph(w *Writer, c rdf.GraphColumns) {
	addInterner(w, "subj", c.Subj)
	w.AddU32("pred.off", c.PredOff)
	w.AddBytes("pred.blob", c.PredBlob)
	w.AddU32("term.off", c.TermOff)
	w.AddBytes("term.blob", c.TermBlob)
	w.AddU32("pos.valstart", c.PosValStart)
	w.AddU32("pos.valterm", c.PosValTerm)
	w.AddU32("pos.poststart", c.PosPostStart)
	w.AddU32("pos.post", c.PosPost)
	w.AddU32("spo.predstart", c.SpoPredStart)
	w.AddU32("spo.pred", c.SpoPred)
	w.AddU32("spo.objstart", c.SpoObjStart)
	w.AddU32("spo.obj", c.SpoObj)
}

func addText(w *Writer, c index.TextColumns) {
	addInterner(w, "docs", c.Docs)
	w.AddU32("live", []uint32{c.Live})
	w.AddU32("term.off", c.TermOff)
	w.AddBytes("term.blob", c.TermBlob)
	w.AddU32("field.off", c.FieldOff)
	w.AddBytes("field.blob", c.FieldBlob)
	w.AddU32("surf.off", c.SurfOff)
	w.AddBytes("surf.blob", c.SurfBlob)
	w.AddU32("post.fieldstart", c.PostFieldStart)
	w.AddU32("post.field", c.PostField)
	w.AddU32("post.start", c.PostStart)
	w.AddU32("post.dns", c.PostDNS)
	w.AddU32("post.tfs", c.PostTFS)
	w.AddU32("df.start", c.DFStart)
	w.AddU32("df.dns", c.DFDNS)
	w.AddU32("doc.fieldstart", c.DocFieldStart)
	w.AddU32("doc.field", c.DocField)
	w.AddU32("doc.termstart", c.DocTermStart)
	w.AddU32("doc.term", c.DocTerm)
	w.AddU32("doc.tf", c.DocTF)
}

func addVectors(w *Writer, c index.VectorColumns) {
	addInterner(w, "terms", c.Terms)
	w.AddU32("row.start", c.RowStart)
	w.AddU32("row.term", c.RowTerm)
	w.AddF64("row.weight", c.RowWeight)
	w.AddU32("post.start", c.PostStart)
	w.AddU32("post.dns", c.PostDNS)
}

func addMeta(w *Writer, d Data) error {
	w.AddU32("items", d.Items)
	ranges := append([]NumericRange(nil), d.Ranges...)
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].Key < ranges[j].Key })
	b, err := json.Marshal(ranges)
	if err != nil {
		return fmt.Errorf("segment: marshal ranges: %w", err)
	}
	w.AddBytes("ranges", b)
	return nil
}

// sectionReader accumulates the first error across section reads, so
// reassembly reads linearly without per-call error plumbing.
type sectionReader struct {
	f   *File
	err error
}

func (r *sectionReader) u32(name string) []uint32 {
	if r.err != nil {
		return nil
	}
	s, err := r.f.U32(name)
	r.err = err
	return s
}

func (r *sectionReader) bytes(name string) []byte {
	if r.err != nil {
		return nil
	}
	b, err := r.f.Bytes(name)
	r.err = err
	return b
}

func (r *sectionReader) interner(prefix string) ids.Columns {
	return ids.Columns{
		Off:    r.u32(prefix + ".off"),
		Blob:   r.bytes(prefix + ".blob"),
		Sorted: r.u32(prefix + ".sorted"),
	}
}

// OpenDir maps the segment set in dir and reassembles its columns. Open
// cost is O(1) in the corpus size: headers and tables of contents are
// checksum-verified, payloads are mapped but not read (call Verify for the
// full integrity pass).
func OpenDir(dir string) (*Set, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	s := &Set{Dir: dir, Manifest: man}
	s.Data.Dataset = man.Dataset
	s.Data.Params = man.Params
	s.Data.IndexAllSubjects = man.IndexAllSubjects
	s.Data.Graph.Triples = uint64(man.Triples)

	open := func(name string) (*sectionReader, error) {
		f, err := Open(filepath.Join(dir, name))
		if err != nil {
			_ = s.Close()
			return nil, err
		}
		s.files = append(s.files, f)
		return &sectionReader{f: f}, nil
	}
	fail := func(name string, err error) (*Set, error) {
		_ = s.Close()
		return nil, fmt.Errorf("segment: %s: %w", filepath.Join(dir, name), err)
	}

	r, err := open(GraphSeg)
	if err != nil {
		return nil, err
	}
	g := &s.Data.Graph
	g.Subj = r.interner("subj")
	g.PredOff = r.u32("pred.off")
	g.PredBlob = r.bytes("pred.blob")
	g.TermOff = r.u32("term.off")
	g.TermBlob = r.bytes("term.blob")
	g.PosValStart = r.u32("pos.valstart")
	g.PosValTerm = r.u32("pos.valterm")
	g.PosPostStart = r.u32("pos.poststart")
	g.PosPost = r.u32("pos.post")
	g.SpoPredStart = r.u32("spo.predstart")
	g.SpoPred = r.u32("spo.pred")
	g.SpoObjStart = r.u32("spo.objstart")
	g.SpoObj = r.u32("spo.obj")
	if r.err != nil {
		return fail(GraphSeg, r.err)
	}

	if r, err = open(TextSeg); err != nil {
		return nil, err
	}
	t := &s.Data.Text
	t.Docs = r.interner("docs")
	if live := r.u32("live"); len(live) == 1 {
		t.Live = live[0]
	} else if r.err == nil {
		r.err = fmt.Errorf("live-count section has %d entries, want 1", len(live))
	}
	t.TermOff = r.u32("term.off")
	t.TermBlob = r.bytes("term.blob")
	t.FieldOff = r.u32("field.off")
	t.FieldBlob = r.bytes("field.blob")
	t.SurfOff = r.u32("surf.off")
	t.SurfBlob = r.bytes("surf.blob")
	t.PostFieldStart = r.u32("post.fieldstart")
	t.PostField = r.u32("post.field")
	t.PostStart = r.u32("post.start")
	t.PostDNS = r.u32("post.dns")
	t.PostTFS = r.u32("post.tfs")
	t.DFStart = r.u32("df.start")
	t.DFDNS = r.u32("df.dns")
	t.DocFieldStart = r.u32("doc.fieldstart")
	t.DocField = r.u32("doc.field")
	t.DocTermStart = r.u32("doc.termstart")
	t.DocTerm = r.u32("doc.term")
	t.DocTF = r.u32("doc.tf")
	if r.err != nil {
		return fail(TextSeg, r.err)
	}

	if r, err = open(VectorsSeg); err != nil {
		return nil, err
	}
	v := &s.Data.Vectors
	v.Terms = r.interner("terms")
	v.RowStart = r.u32("row.start")
	v.RowTerm = r.u32("row.term")
	if r.err == nil {
		v.RowWeight, r.err = r.f.F64("row.weight")
	}
	v.PostStart = r.u32("post.start")
	v.PostDNS = r.u32("post.dns")
	if r.err != nil {
		return fail(VectorsSeg, r.err)
	}

	if r, err = open(MetaSeg); err != nil {
		return nil, err
	}
	s.Data.Items = r.u32("items")
	rangesJSON := r.bytes("ranges")
	if r.err == nil {
		r.err = json.Unmarshal(rangesJSON, &s.Data.Ranges)
	}
	if r.err != nil {
		return fail(MetaSeg, r.err)
	}
	return s, nil
}

// Close unmaps every file in the set. Column slices become invalid.
func (s *Set) Close() error {
	var first error
	for _, f := range s.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.files = nil
	return first
}

// Verify runs the full O(bytes) integrity pass over the set: every
// section's payload checksum, plus each file's whole-file checksum and size
// against the manifest.
func (s *Set) Verify() error {
	byName := make(map[string]ManifestFile, len(s.Manifest.Files))
	for _, mf := range s.Manifest.Files {
		byName[mf.Name] = mf
	}
	for _, f := range s.files {
		if err := f.Verify(); err != nil {
			return err
		}
		name := filepath.Base(f.path)
		mf, ok := byName[name]
		if !ok {
			return fmt.Errorf("segment: %s not listed in manifest", name)
		}
		if f.Size() != mf.Bytes {
			return fmt.Errorf("segment: %s is %d bytes, manifest says %d", name, f.Size(), mf.Bytes)
		}
		if got := Checksum(f.data); got != mf.CRC {
			return fmt.Errorf("segment: %s whole-file checksum mismatch (got %08x, want %08x)", name, got, mf.CRC)
		}
	}
	return nil
}
