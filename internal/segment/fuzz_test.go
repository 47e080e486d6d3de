package segment

import (
	"os"
	"testing"
)

// openBytes parses an in-memory segment image through the same parse path
// Open takes after mapping a file.
func openBytes(data []byte) (*File, error) {
	f := &File{path: "<bytes>", data: data}
	if err := f.parse(); err != nil {
		return nil, err
	}
	return f, nil
}

// FuzzSegmentHeader feeds arbitrary bytes through the segment-file parser.
// The invariant: openBytes either succeeds or returns an error — it must
// never panic, however the header, TOC, or section frames are mangled. On
// success, every declared section must also be readable without panicking.
func FuzzSegmentHeader(f *testing.F) {
	// Seed with a small valid file plus systematic mutations of it, so the
	// fuzzer starts at the interesting parse paths rather than the magic
	// check.
	w := NewWriter()
	w.AddBytes("blob", []byte("seed payload"))
	w.AddU32("ids", []uint32{1, 2, 3})
	w.AddF64("weights", []float64{0.5, -2})
	path := f.TempDir() + "/seed.seg"
	if _, _, err := w.WriteFile(path); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:headerSize])
	f.Add(raw[:len(raw)-1])
	for _, off := range []int{0, 8, 16, 36, headerSize, len(raw) - 2} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0xA5
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte(Magic))

	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := openBytes(data)
		if err != nil {
			return
		}
		for _, name := range file.order {
			// Readers must tolerate any kind without panicking.
			file.Bytes(name)
			file.U32(name)
			file.F64(name)
		}
		file.Verify()
		file.Close()
	})
}

// FuzzManifest feeds arbitrary bytes through the manifest parser: clean
// error or valid manifest, never a panic.
func FuzzManifest(f *testing.F) {
	f.Add([]byte(`{"format":5,"tool":"magnet-build","dataset":"recipes","params":{"recipes":200,"seed":1},"indexAllSubjects":false,"items":495,"triples":3731,"files":[{"name":"graph.seg","bytes":143744,"crc32c":4012441468}]}`))
	f.Add(format4Manifest)
	f.Add(format3Manifest)
	f.Add(format2Manifest)
	f.Add(oldManifest)
	f.Add(shardManifest)
	f.Add([]byte(`{"format":99}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			return
		}
		if m.Format != Version {
			t.Errorf("ParseManifest accepted format %d", m.Format)
		}
	})
}
