package segment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// File is an opened segment file: the raw mapping plus its parsed table of
// contents. Section accessors return zero-copy slices into the mapping;
// they stay valid until Close. Opening is O(sections): the header and TOC
// are checksum-verified, section payloads are not (call Verify for the
// full O(bytes) pass — magnet-build does after writing, `make check` does
// in its corruption test).
type File struct {
	path     string
	data     []byte
	unmap    func() error
	sections map[string]Section
	// Names in TOC order, for Verify diagnostics.
	order []string
}

// Open maps the segment file at path read-only and parses its header and
// table of contents. Corrupt or truncated files yield errors, never panics.
func Open(path string) (*File, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, fmt.Errorf("segment: open %s: %w", path, err)
	}
	f := &File{path: path, data: data, unmap: unmap}
	if err := f.parse(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("segment: open %s: %w", path, err)
	}
	return f, nil
}

// OpenBytes parses an in-memory segment image (tests and fuzzing).
func OpenBytes(data []byte) (*File, error) {
	f := &File{path: "<bytes>", data: data}
	if err := f.parse(); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *File) parse() error {
	size := uint64(len(f.data))
	h, err := parseHeader(f.data, size)
	if err != nil {
		return err
	}
	toc := f.data[h.tocOff : h.tocOff+h.tocLen]
	if got := Checksum(toc); got != h.tocCRC {
		return fmt.Errorf("table of contents checksum mismatch (got %08x, want %08x)", got, h.tocCRC)
	}
	var sections []Section
	if err := json.Unmarshal(toc, &sections); err != nil {
		return fmt.Errorf("parse table of contents: %w", err)
	}
	f.sections = make(map[string]Section, len(sections))
	for _, s := range sections {
		if s.Name == "" {
			return fmt.Errorf("section with empty name")
		}
		if _, dup := f.sections[s.Name]; dup {
			return fmt.Errorf("duplicate section %q", s.Name)
		}
		if s.Off < headerSize || s.Off > size || s.Len > size-s.Off {
			return fmt.Errorf("section %q out of range (off=%d len=%d size=%d)", s.Name, s.Off, s.Len, size)
		}
		if s.Off%align != 0 {
			return fmt.Errorf("section %q misaligned (off=%d)", s.Name, s.Off)
		}
		if s.Len%uint64(s.Kind.elemSize()) != 0 {
			return fmt.Errorf("section %q length %d not a multiple of %s element size", s.Name, s.Len, s.Kind)
		}
		f.sections[s.Name] = s
		f.order = append(f.order, s.Name)
	}
	return nil
}

// Close unmaps the file. Section slices obtained earlier become invalid.
func (f *File) Close() error {
	f.sections = nil
	if f.unmap != nil {
		u := f.unmap
		f.unmap = nil
		f.data = nil
		return u()
	}
	f.data = nil
	return nil
}

func (f *File) section(name string, kind Kind) ([]byte, error) {
	s, ok := f.sections[name]
	if !ok {
		return nil, fmt.Errorf("segment: %s: no section %q", f.path, name)
	}
	if s.Kind != kind {
		return nil, fmt.Errorf("segment: %s: section %q is %s, not %s", f.path, name, s.Kind, kind)
	}
	return f.data[s.Off : s.Off+s.Len], nil
}

// Bytes returns the named opaque byte section.
func (f *File) Bytes(name string) ([]byte, error) { return f.section(name, KindBytes) }

// U32 returns the named []uint32 section as a zero-copy slice cast.
func (f *File) U32(name string) ([]uint32, error) {
	b, err := f.section(name, KindU32)
	if err != nil {
		return nil, err
	}
	s, err := castU32(b)
	if err != nil {
		return nil, fmt.Errorf("segment: %s: section %q: %w", f.path, name, err)
	}
	return s, nil
}

// F64 returns the named []float64 section as a zero-copy slice cast.
func (f *File) F64(name string) ([]float64, error) {
	b, err := f.section(name, KindF64)
	if err != nil {
		return nil, err
	}
	s, err := castF64(b)
	if err != nil {
		return nil, fmt.Errorf("segment: %s: section %q: %w", f.path, name, err)
	}
	return s, nil
}

// Has reports whether the file carries the named section.
func (f *File) Has(name string) bool {
	_, ok := f.sections[name]
	return ok
}

// Sections returns the section names in table-of-contents order.
func (f *File) Sections() []string {
	return append([]string(nil), f.order...)
}

// Verify checksums every section payload against the table of contents —
// the O(bytes) integrity pass deliberately kept off the open path.
func (f *File) Verify() error {
	for _, name := range f.order {
		s := f.sections[name]
		if got := Checksum(f.data[s.Off : s.Off+s.Len]); got != s.CRC {
			return fmt.Errorf("segment: %s: section %q checksum mismatch (got %08x, want %08x)", f.path, name, got, s.CRC)
		}
	}
	return nil
}

// Size returns the mapped file size in bytes.
func (f *File) Size() int64 { return int64(len(f.data)) }

// Manifest identifies a segment set: what was compiled, by what, with which
// parameters, and the integrity data for each file. It is the first thing
// a reader consults and the only human-readable piece of the format.
type Manifest struct {
	// Format is the segment format version (must equal Version).
	Format int `json:"format"`
	// Tool names the producer, e.g. "magnet-build".
	Tool string `json:"tool"`
	// Dataset is the compiled dataset name ("recipes", "inbox", ...) or
	// "file" for N-Triples input.
	Dataset string `json:"dataset"`
	// Params records build parameters that change the compiled output
	// (corpus size, seed), so readers can reject mismatched expectations.
	Params map[string]int64 `json:"params,omitempty"`
	// IndexAllSubjects mirrors core.Options.IndexAllSubjects at build time;
	// open applies it so the item universe matches the build.
	IndexAllSubjects bool `json:"indexAllSubjects"`
	// Items and Triples are corpus statistics for display and sanity checks.
	Items   int `json:"items"`
	Triples int `json:"triples"`
	// Files lists every data file with its size and whole-file CRC32-C.
	Files []ManifestFile `json:"files"`
}

// ManifestFile is one data file entry in a manifest.
type ManifestFile struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
	CRC   uint32 `json:"crc32c"`
}

// ParseManifest decodes and validates manifest JSON. Errors are clean for
// any input (fuzzed in FuzzManifest).
func ParseManifest(b []byte) (Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		if partitionManifest(b) {
			return Manifest{}, fmt.Errorf("segment: parse manifest: this set is one shard of a shard layout, "+
				"and shard layouts are no longer supported; rebuild the whole corpus with magnet-build: %w", err)
		}
		return Manifest{}, fmt.Errorf("segment: parse manifest: %w", err)
	}
	if m.Format != Version {
		return Manifest{}, fmt.Errorf("segment: manifest format %d not supported (want %d)", m.Format, Version)
	}
	if m.Items < 0 || m.Triples < 0 {
		return Manifest{}, fmt.Errorf("segment: manifest has negative counts (items=%d triples=%d)", m.Items, m.Triples)
	}
	seen := make(map[string]bool, len(m.Files))
	for _, f := range m.Files {
		if f.Name == "" || f.Bytes < 0 {
			return Manifest{}, fmt.Errorf("segment: manifest file entry %+v invalid", f)
		}
		if seen[f.Name] {
			return Manifest{}, fmt.Errorf("segment: manifest lists %q twice", f.Name)
		}
		seen[f.Name] = true
	}
	return m, nil
}

// partitionManifest reports whether manifest JSON carries the fields older
// builds wrote for one directory of a shard layout. Such a directory holds
// only part of the item universe, so it must not open as a whole corpus.
func partitionManifest(b []byte) bool {
	var probe struct {
		Shard  json.RawMessage `json:"shard"`
		Shards json.RawMessage `json:"shards"`
	}
	return json.Unmarshal(b, &probe) == nil && (probe.Shard != nil || probe.Shards != nil)
}

// ReadManifest loads and validates dir's manifest.
func ReadManifest(dir string) (Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return Manifest{}, err
	}
	return ParseManifest(b)
}
