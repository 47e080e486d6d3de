// Package segment implements Magnet's persistent immutable index segments:
// a versioned, checksummed, mmap-ready on-disk columnar format holding the
// engine's full dense-ID plane — interner string tables, per-predicate
// sorted posting lists, text-index postings, document frequencies and
// document lengths, and per-attribute vector columns — written once by
// magnet-build and opened read-only with O(1) work (no per-element decode;
// sections are direct slice casts into the mapped file).
//
// A segment set is a directory:
//
//	MANIFEST.json   format version, dataset identity, file checksums
//	graph.seg       RDF graph columns (interners, SPO/POS indexes)
//	text.seg        text-index columns (postings, df, doc lengths, surfaces)
//	vectors.seg     vector-store columns (tf·idf rows)
//	meta.seg        item universe, numeric-range statistics
//
// Each .seg file is a fixed binary header, 8-byte-aligned typed sections,
// and a JSON table of contents; see DESIGN.md "Persistent segments" for
// the layout and versioning rules.
package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"unsafe"
)

// Format constants. Bump Version on any incompatible layout change; readers
// reject files whose version they do not understand.
const (
	// Magic opens every segment file.
	Magic = "MAGSEG\x00\x01"
	// Version is the current segment format version. Version 2 numbers
	// subjects lexically and stores compiled tf·idf rows keyed by subject
	// ID; version 3 keys the text postings and per-document rows by
	// subject ID too and drops the text doc table; version 4 drops the
	// vector store's per-term postings; version 5 stores one document
	// frequency per term and one token count per document in place of the
	// text index's DF runs and per-document term rows. Version 1–4 sets
	// must be rebuilt.
	Version = 5
	// ManifestName is the manifest file inside a segment directory.
	ManifestName = "MANIFEST.json"
	// headerSize is the fixed on-disk header: magic[8] version[4] flags[4]
	// tocOff[8] tocLen[8] tocCRC[4] headerCRC[4].
	headerSize = 40
	// align is the section payload alignment. float64 and uint64 columns
	// require 8-byte alignment for direct slice casts; mmap bases are page
	// aligned, so aligning section offsets suffices.
	align = 8
)

// Header flags.
const (
	// flagLittleEndian records the byte order sections were written in.
	// Readers on a mismatched host refuse the file rather than decode per
	// element.
	flagLittleEndian = 1 << 0
)

// crcTable is the Castagnoli polynomial, the usual choice for storage
// checksums (hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32-C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// Kind is a section's element type. It fixes the width and alignment of
// the payload and which accessor may read it.
type Kind uint32

const (
	// KindBytes is an opaque byte section (string-table blobs, bitsets).
	KindBytes Kind = iota
	// KindU32 is a little-endian []uint32 section.
	KindU32
	// KindF64 is a little-endian []float64 section.
	KindF64
)

func (k Kind) String() string {
	switch k {
	case KindBytes:
		return "bytes"
	case KindU32:
		return "u32"
	case KindF64:
		return "f64"
	default:
		return fmt.Sprintf("kind(%d)", uint32(k))
	}
}

func (k Kind) elemSize() int {
	switch k {
	case KindU32:
		return 4
	case KindF64:
		return 8
	default:
		return 1
	}
}

// Section is one table-of-contents entry: a named, typed, checksummed byte
// range of the file. Offsets are absolute and align-multiple.
type Section struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	Off  uint64 `json:"off"`
	Len  uint64 `json:"len"` // payload bytes
	CRC  uint32 `json:"crc"` // CRC32-C of the payload
}

// header is the parsed fixed-size file header.
type header struct {
	version uint32
	flags   uint32
	tocOff  uint64
	tocLen  uint64
	tocCRC  uint32
}

// hostLittleEndian reports the byte order of this process.
func hostLittleEndian() bool {
	var probe uint16 = 1
	return *(*byte)(unsafe.Pointer(&probe)) == 1
}

// putHeader serializes h into a headerSize buffer, including the trailing
// header CRC.
func putHeader(h header) []byte {
	b := make([]byte, headerSize)
	copy(b, Magic)
	binary.LittleEndian.PutUint32(b[8:], h.version)
	binary.LittleEndian.PutUint32(b[12:], h.flags)
	binary.LittleEndian.PutUint64(b[16:], h.tocOff)
	binary.LittleEndian.PutUint64(b[24:], h.tocLen)
	binary.LittleEndian.PutUint32(b[32:], h.tocCRC)
	binary.LittleEndian.PutUint32(b[36:], Checksum(b[:36]))
	return b
}

// parseHeader validates the fixed header fields. It never panics: every
// length and offset is checked against the file size before use.
func parseHeader(b []byte, fileSize uint64) (header, error) {
	var h header
	if len(b) < headerSize {
		return h, fmt.Errorf("segment: file too short for header (%d bytes)", len(b))
	}
	if string(b[:8]) != Magic {
		return h, fmt.Errorf("segment: bad magic %q", b[:8])
	}
	if got, want := binary.LittleEndian.Uint32(b[36:40]), Checksum(b[:36]); got != want {
		return h, fmt.Errorf("segment: header checksum mismatch (got %08x, want %08x)", got, want)
	}
	h.version = binary.LittleEndian.Uint32(b[8:])
	h.flags = binary.LittleEndian.Uint32(b[12:])
	h.tocOff = binary.LittleEndian.Uint64(b[16:])
	h.tocLen = binary.LittleEndian.Uint64(b[24:])
	h.tocCRC = binary.LittleEndian.Uint32(b[32:])
	if h.version != Version {
		return h, fmt.Errorf("segment: format version %d not supported (want %d); rebuild the set with magnet-build", h.version, Version)
	}
	if (h.flags&flagLittleEndian != 0) != hostLittleEndian() {
		return h, fmt.Errorf("segment: byte-order mismatch between file and host")
	}
	if h.tocOff < headerSize || h.tocOff > fileSize || h.tocLen > fileSize-h.tocOff {
		return h, fmt.Errorf("segment: table of contents out of range (off=%d len=%d size=%d)", h.tocOff, h.tocLen, fileSize)
	}
	return h, nil
}

// castU32 reinterprets an aligned byte section as []uint32 without copying.
func castU32(b []byte) ([]uint32, error) {
	if len(b) == 0 {
		return nil, nil
	}
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("segment: u32 section length %d not a multiple of 4", len(b))
	}
	if uintptr(unsafe.Pointer(&b[0]))%4 != 0 {
		return nil, fmt.Errorf("segment: u32 section misaligned")
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4), nil
}

// castF64 reinterprets an aligned byte section as []float64 without copying.
func castF64(b []byte) ([]float64, error) {
	if len(b) == 0 {
		return nil, nil
	}
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("segment: f64 section length %d not a multiple of 8", len(b))
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		return nil, fmt.Errorf("segment: f64 section misaligned")
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8), nil
}

// u32Bytes reinterprets a []uint32 as raw bytes for writing (the write side
// of castU32; same host byte order).
func u32Bytes(s []uint32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

// f64Bytes reinterprets a []float64 as raw bytes for writing.
func f64Bytes(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}
