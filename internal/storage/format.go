// Package storage persists the columnar engine: a versioned binary
// snapshot of a whole database (per-relation sections holding code
// vectors, value dictionaries and uniqueness state, each CRC32C-checksummed
// and indexed by a footer so individual columns are section-loadable
// without reading the whole file) plus a batch-append write-ahead log, so
// a crashed or restarted discovery job replays deltas instead of
// re-ingesting.
//
// The byte-level contract — every magic number, varint, checksum and the
// NULL convention — is specified normatively in docs/storage-format.md;
// this file is its implementation. All fixed-width integers are
// little-endian; all counts and lengths are unsigned LEB128 varints
// (encoding/binary's Uvarint); signed payloads use the zigzag varint
// (binary.Varint). Checksums are CRC32-Castagnoli over raw section
// payloads.
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"dbre/internal/value"
)

const (
	// SnapshotFile is the snapshot's file name inside a snapshot
	// directory; WALFile is the write-ahead log's.
	SnapshotFile = "snapshot.dbre"
	WALFile      = "wal.dbre"

	snapshotMagic = "DBRESNP1" // snapshot header, bytes 0-7
	trailerMagic  = "DBSF"     // snapshot trailer, last 4 bytes
	walMagic      = "DBREWAL1" // WAL header, bytes 0-7

	formatVersion = 1

	headerSize    = 16 // snapshot: magic(8) + version(4) + flags(4)
	trailerSize   = 24 // footerOff(8) + footerLen(8) + footerCRC(4) + magic(4)
	walHeaderSize = 24 // magic(8) + version(4) + boundCRC(4) + boundSize(8)
)

// Section types of the snapshot file.
const (
	secCatalog   byte = 1 // relation schemas, attribute types, UNIQUE sets
	secTableMeta byte = 2 // per relation: row count, version, counters
	secCodes     byte = 3 // per column: the []int32 code vector
	secDict      byte = 4 // per column: the value dictionary
	secUniq      byte = 5 // per relation: uniqueness-index state
)

// noID marks the rel/col slot of a section that is not relation- or
// column-scoped (the catalog, the rel slot of nothing — catalog only).
const noID = ^uint32(0)

// WAL record types.
const walRecBatch byte = 1

// castagnoli is the CRC32C table every checksum in the format uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// sectionName renders a section identity for error messages:
// "codes[orders/2]" style, with the relation index and column index.
func sectionName(typ byte, rel, col uint32) string {
	var kind string
	switch typ {
	case secCatalog:
		return "catalog"
	case secTableMeta:
		kind = "tablemeta"
	case secCodes:
		kind = "codes"
	case secDict:
		kind = "dict"
	case secUniq:
		kind = "uniq"
	default:
		kind = fmt.Sprintf("type-%d", typ)
	}
	if col == noID {
		return fmt.Sprintf("%s[rel %d]", kind, rel)
	}
	return fmt.Sprintf("%s[rel %d col %d]", kind, rel, col)
}

// enc is the append-only payload builder. Sections are encoded into a
// reused enc and written out with their checksum.
type enc struct{ b []byte }

func (e *enc) reset()           { e.b = e.b[:0] }
func (e *enc) u8(v byte)        { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)     { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)     { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) svarint(v int64)  { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// dec decodes one section payload with a sticky error: after the first
// malformed read every further accessor is a no-op returning zero, and
// finish reports the error (or leftover bytes). Counts are validated
// against the remaining payload before any allocation, so a CRC-valid
// but hostile payload cannot force a huge make().
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *dec) u8() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail("truncated")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 4 {
		d.fail("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) svarint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads an element count whose elements each occupy at least one
// byte of the remaining payload, rejecting counts the payload cannot
// possibly hold.
func (d *dec) count(what string) int {
	v := d.uvarint()
	if d.err == nil && v > uint64(len(d.b)) {
		d.fail("%s count %d exceeds remaining payload %d", what, v, len(d.b))
		return 0
	}
	return int(v)
}

func (d *dec) raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b) < n {
		d.fail("truncated")
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *dec) str() string { return string(d.raw(d.count("string length"))) }

func (d *dec) finish(what string) error {
	if d.err != nil {
		return fmt.Errorf("%s: %w", what, d.err)
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%s: %d bytes of trailing garbage", what, len(d.b))
	}
	return nil
}

// Value codec tags. On-disk tags are pinned independently of value.Kind's
// Go declaration order; tagNull appears only in WAL row payloads —
// dictionaries never hold NULL.
const (
	tagNull   byte = 0
	tagInt    byte = 1
	tagFloat  byte = 2
	tagString byte = 3
	tagBool   byte = 4
	tagDate   byte = 5
)

// kindTag maps a value.Kind to its pinned on-disk tag (attribute types in
// the catalog section use the same tag space as value payloads).
func kindTag(k value.Kind) byte {
	switch k {
	case value.KindNull:
		return tagNull
	case value.KindInt:
		return tagInt
	case value.KindFloat:
		return tagFloat
	case value.KindString:
		return tagString
	case value.KindBool:
		return tagBool
	case value.KindDate:
		return tagDate
	default:
		panic(fmt.Sprintf("storage: unencodable kind %v", k))
	}
}

// tagKind is kindTag's decoding inverse; ok is false on an unknown tag.
func tagKind(t byte) (value.Kind, bool) {
	switch t {
	case tagNull:
		return value.KindNull, true
	case tagInt:
		return value.KindInt, true
	case tagFloat:
		return value.KindFloat, true
	case tagString:
		return value.KindString, true
	case tagBool:
		return value.KindBool, true
	case tagDate:
		return value.KindDate, true
	default:
		return value.KindNull, false
	}
}

func (e *enc) value(v value.Value) {
	switch v.Kind() {
	case value.KindNull:
		e.u8(tagNull)
	case value.KindInt:
		e.u8(tagInt)
		e.svarint(v.Int())
	case value.KindFloat:
		// Raw IEEE-754 bits: NaN payloads and signed zeros round-trip.
		e.u8(tagFloat)
		e.u64(math.Float64bits(v.Float()))
	case value.KindString:
		e.u8(tagString)
		e.str(v.Str())
	case value.KindBool:
		e.u8(tagBool)
		if v.Bool() {
			e.u8(1)
		} else {
			e.u8(0)
		}
	case value.KindDate:
		y, m, day := v.Date().Date()
		e.u8(tagDate)
		e.svarint(int64(y))
		e.u8(byte(m))
		e.u8(byte(day))
	default:
		panic(fmt.Sprintf("storage: unencodable value kind %v", v.Kind()))
	}
}

func (d *dec) value() value.Value {
	switch tag := d.u8(); tag {
	case tagNull:
		return value.Null
	case tagInt:
		return value.NewInt(d.svarint())
	case tagFloat:
		return value.NewFloat(math.Float64frombits(d.u64()))
	case tagString:
		return value.NewString(d.str())
	case tagBool:
		switch b := d.u8(); b {
		case 0:
			return value.NewBool(false)
		case 1:
			return value.NewBool(true)
		default:
			d.fail("bad bool payload %d", b)
			return value.Value{}
		}
	case tagDate:
		y := d.svarint()
		m := d.u8()
		day := d.u8()
		if d.err == nil && (m < 1 || m > 12 || day < 1 || day > 31) {
			d.fail("bad date payload %d-%d-%d", y, m, day)
			return value.Value{}
		}
		return value.NewDate(int(y), time.Month(m), int(day))
	default:
		if d.err == nil {
			d.fail("bad value tag %d", tag)
		}
		return value.Value{}
	}
}
