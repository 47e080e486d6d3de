package segment

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTestFile builds a small three-kind segment file on disk and returns
// its path plus the payloads it holds.
func writeTestFile(t *testing.T) (path string, wantB []byte, wantU []uint32, wantF []float64) {
	t.Helper()
	wantB = []byte("hello, columnar world")
	wantU = []uint32{0, 1, 7, 42, 1 << 30}
	wantF = []float64{0, -1.5, 3.14159, 1e300}
	w := NewWriter()
	w.AddBytes("blob", wantB)
	w.AddU32("ids", wantU)
	w.AddF64("weights", wantF)
	w.AddBytes("empty", nil)
	path = filepath.Join(t.TempDir(), "test.seg")
	if _, _, err := w.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path, wantB, wantU, wantF
}

func TestFileRoundTrip(t *testing.T) {
	path, wantB, wantU, wantF := writeTestFile(t)
	f, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()

	b, err := f.Bytes("blob")
	if err != nil || string(b) != string(wantB) {
		t.Errorf("Bytes(blob) = %q, %v; want %q", b, err, wantB)
	}
	u, err := f.U32("ids")
	if err != nil || len(u) != len(wantU) {
		t.Fatalf("U32(ids) = %v, %v; want %v", u, err, wantU)
	}
	for i := range u {
		if u[i] != wantU[i] {
			t.Errorf("ids[%d] = %d, want %d", i, u[i], wantU[i])
		}
	}
	fl, err := f.F64("weights")
	if err != nil || len(fl) != len(wantF) {
		t.Fatalf("F64(weights) = %v, %v; want %v", fl, err, wantF)
	}
	for i := range fl {
		if fl[i] != wantF[i] {
			t.Errorf("weights[%d] = %g, want %g", i, fl[i], wantF[i])
		}
	}
	if e, err := f.Bytes("empty"); err != nil || len(e) != 0 {
		t.Errorf("Bytes(empty) = %v, %v; want empty", e, err)
	}
	if _, ok := f.sections["blob"]; !ok {
		t.Error("section blob missing from the table of contents")
	}
	if err := f.Verify(); err != nil {
		t.Errorf("Verify on clean file: %v", err)
	}
}

func TestKindMismatch(t *testing.T) {
	path, _, _, _ := writeTestFile(t)
	f, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	if _, err := f.U32("blob"); err == nil {
		t.Error("U32 over a bytes section should error")
	}
	if _, err := f.F64("ids"); err == nil {
		t.Error("F64 over a u32 section should error")
	}
	if _, err := f.Bytes("missing"); err == nil {
		t.Error("Bytes on a missing section should error")
	}
}

// TestCorruptPayload: flipping a payload byte leaves Open working (header
// and TOC are intact) but must fail Verify.
func TestCorruptPayload(t *testing.T) {
	path, _, _, _ := writeTestFile(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+2] ^= 0xFF // inside the first payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatalf("Open after payload flip should succeed (lazy verify): %v", err)
	}
	defer f.Close()
	if err := f.Verify(); err == nil {
		t.Error("Verify must detect a flipped payload byte")
	}
}

// TestCorruptHeader: any bit flip inside the header or TOC must be caught
// at Open, with an error rather than a panic.
func TestCorruptHeader(t *testing.T) {
	path, _, _, _ := writeTestFile(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 5, 9, 17, 25, 33, len(raw) - 3} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x40
		if _, err := openBytes(mut); err == nil {
			t.Errorf("openBytes with byte %d flipped: no error", off)
		}
	}
}

func TestTruncation(t *testing.T) {
	path, _, _, _ := writeTestFile(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, headerSize - 1, headerSize, headerSize + 8, len(raw) / 2, len(raw) - 1} {
		if _, err := openBytes(raw[:n]); err == nil {
			t.Errorf("openBytes truncated to %d bytes: no error", n)
		}
	}
}

func TestWrongVersion(t *testing.T) {
	path, _, _, _ := writeTestFile(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the version field and re-sign the header so the version check
	// itself (not the header CRC) rejects the file.
	raw[8] = 99
	binary.LittleEndian.PutUint32(raw[36:], Checksum(raw[:36]))
	if _, err := openBytes(raw); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("wrong version: err = %v, want version error", err)
	}
}

// oldManifest and format2Manifest–format4Manifest are manifests of
// earlier formats (version 1: subjects in first-insertion order, lazily
// derived vector rows; version 2: a text doc table of IRI strings;
// version 3: per-term vector postings; version 4: text DF runs and
// per-document term rows); all are also FuzzManifest seeds.
var (
	oldManifest     = []byte(`{"format":1,"tool":"magnet-build","dataset":"recipes","items":495,"triples":3731,"files":[]}`)
	format2Manifest = []byte(`{"format":2,"tool":"magnet-build","dataset":"recipes","params":{"recipes":200,"seed":1},"indexAllSubjects":false,"items":495,"triples":3731,"files":[{"name":"graph.seg","bytes":143744,"crc32c":4012441468}]}`)
	format3Manifest = []byte(`{"format":3,"tool":"magnet-build","dataset":"recipes","params":{"recipes":200,"seed":1},"indexAllSubjects":false,"items":495,"triples":3731,"files":[{"name":"graph.seg","bytes":143744,"crc32c":4012441468}]}`)
	format4Manifest = []byte(`{"format":4,"tool":"magnet-build","dataset":"recipes","params":{"recipes":200,"seed":1},"indexAllSubjects":false,"items":495,"triples":3731,"files":[{"name":"graph.seg","bytes":143744,"crc32c":4012441468}]}`)
)

// TestOldFormatSaysRebuild: version-1 to version-4 segment headers and
// manifests are rejected with the way to recover.
func TestOldFormatSaysRebuild(t *testing.T) {
	path, _, _, _ := writeTestFile(t)
	for version, manifest := range map[uint32][]byte{1: oldManifest, 2: format2Manifest, 3: format3Manifest, 4: format4Manifest} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(raw[8:], version)
		binary.LittleEndian.PutUint32(raw[36:], Checksum(raw[:36]))
		_, err = openBytes(raw)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", version)) || !strings.Contains(err.Error(), "rebuild the set with magnet-build") {
			t.Errorf("version-%d header: err = %v, want a rebuild hint", version, err)
		}
		_, err = ParseManifest(manifest)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("format %d", version)) || !strings.Contains(err.Error(), "rebuild the set with magnet-build") {
			t.Errorf("format-%d manifest: err = %v, want a rebuild hint", version, err)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := Manifest{
		Format:  Version,
		Tool:    "magnet-build",
		Dataset: "recipes",
		Params:  map[string]int64{"recipes": 200, "seed": 1},
		Items:   495,
		Triples: 3731,
		Files:   []ManifestFile{{Name: "graph.seg", Bytes: 1024, CRC: 0xDEADBEEF}},
	}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatalf("WriteManifest: %v", err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if got.Dataset != m.Dataset || got.Items != m.Items || got.Triples != m.Triples ||
		got.Params["recipes"] != 200 || len(got.Files) != 1 || got.Files[0].CRC != m.Files[0].CRC {
		t.Errorf("manifest round trip: got %+v, want %+v", got, m)
	}
}

func TestParseManifestRejects(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"not json":      "{",
		"wrong format":  `{"format": 99, "files": []}`,
		"unknown field": `{"format": 5, "surprise": true}`,
		"negative":      `{"format": 5, "items": -1}`,
		"dup file":      `{"format": 5, "files": [{"name":"a","bytes":1,"crc32c":0},{"name":"a","bytes":2,"crc32c":0}]}`,
		"nameless file": `{"format": 5, "files": [{"name":"","bytes":1,"crc32c":0}]}`,
	}
	for name, in := range cases {
		if _, err := ParseManifest([]byte(in)); err == nil {
			t.Errorf("%s: ParseManifest accepted %q", name, in)
		}
	}
}

// shardManifest is the manifest older builds wrote into each directory of
// a 4-way shard layout (here shard 1). Such a directory holds a quarter of
// the item universe; it is also a FuzzManifest seed.
var shardManifest = []byte(`{"format":1,"tool":"magnet-build","dataset":"recipes","params":{"recipes":200,"seed":1},"indexAllSubjects":false,"shard":1,"shards":4,"items":124,"triples":3731,"files":[{"name":"graph.seg","bytes":143744,"crc32c":4012441468}]}`)

// TestParseManifestRejectsShardLayout: one shard directory must not open
// as a whole corpus, and the error must say how to recover.
func TestParseManifestRejectsShardLayout(t *testing.T) {
	check := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted a shard-layout manifest", what)
		}
		for _, want := range []string{"shard layouts are no longer supported", "magnet-build"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s error %q does not mention %q", what, err, want)
			}
		}
	}
	_, err := ParseManifest(shardManifest)
	check("ParseManifest", err)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), shardManifest, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDir(dir)
	check("OpenDir", err)
}

// TestBuildDirMissingFile: a set with a data file deleted must fail OpenDir.
func TestOpenDirMissingFile(t *testing.T) {
	if _, err := OpenDir(t.TempDir()); err == nil {
		t.Error("OpenDir on an empty directory should error")
	}
}
