// Package storage implements the paged secondary-storage substrate under
// the stream processors: heap files of encoded rows on fixed-size pages, a
// buffer pool with LRU replacement and I/O accounting, sequential scans,
// external multiway merge sort, and CSV import/export.
//
// The paper's third stream processing tradeoff — multiple passes over input
// streams, i.e. the number of disk accesses (Section 4.1) — is what this
// package makes measurable: every page fetched from the backing file is
// counted, so the experiments can report the pass behaviour of pre-sorted
// single-scan plans against sort-then-stream plans.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tdb/internal/relation"
)

// PageSize is the fixed page size in bytes.
const PageSize = 4096

// pageHeaderSize is the per-page bookkeeping: row count (2 bytes), used
// bytes (2 bytes), and an FNV-1a checksum of the payload (4 bytes). The
// checksum is what turns a torn (partial) page write into a detected
// ErrCorruptPage on the next read instead of rows silently decoded from
// zero-filled bytes.
const pageHeaderSize = 8

// ErrCorruptPage is wrapped by every page-decode failure: short page,
// impossible header, checksum mismatch, or truncated row.
var ErrCorruptPage = errors.New("storage: corrupt page")

// page is one fixed-size block of rows in the relation row codec,
// appended front to back.
type page struct {
	buf  [PageSize]byte
	rows int
	used int
}

func newPage() *page { return &page{used: pageHeaderSize} }

// tryAdd appends an encoded row; it reports false when the page is full.
func (p *page) tryAdd(enc []byte) bool {
	if p.used+len(enc) > PageSize {
		return false
	}
	copy(p.buf[p.used:], enc)
	p.used += len(enc)
	p.rows++
	return true
}

// finalize writes the header fields into the buffer.
func (p *page) finalize() {
	binary.LittleEndian.PutUint16(p.buf[0:2], uint16(p.rows))
	binary.LittleEndian.PutUint16(p.buf[2:4], uint16(p.used))
	binary.LittleEndian.PutUint32(p.buf[4:8], fnv32a(p.buf[pageHeaderSize:p.used]))
}

// fnv32a hashes a byte slice with 32-bit FNV-1a.
func fnv32a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// decodePage parses a finalized page image back into rows. Every failure
// wraps ErrCorruptPage.
func decodePage(buf []byte, schema *relation.Schema) ([]relation.Row, error) {
	if len(buf) < pageHeaderSize {
		return nil, fmt.Errorf("%w: short page (%d bytes)", ErrCorruptPage, len(buf))
	}
	n := int(binary.LittleEndian.Uint16(buf[0:2]))
	used := int(binary.LittleEndian.Uint16(buf[2:4]))
	if used > len(buf) || used < pageHeaderSize {
		return nil, fmt.Errorf("%w: used=%d", ErrCorruptPage, used)
	}
	if sum := binary.LittleEndian.Uint32(buf[4:8]); sum != fnv32a(buf[pageHeaderSize:used]) {
		return nil, fmt.Errorf("%w: checksum mismatch (torn write?)", ErrCorruptPage)
	}
	return decodeRows(buf[pageHeaderSize:used], n, schema)
}

// decodeRows parses exactly n rows in the relation row codec that must
// fill buf, each of the schema's arity and column kinds. Every failure
// wraps ErrCorruptPage.
func decodeRows(buf []byte, n int, schema *relation.Schema) ([]relation.Row, error) {
	// Every encoded row takes at least one byte.
	if n > len(buf) {
		return nil, fmt.Errorf("%w: %d rows in %d bytes", ErrCorruptPage, n, len(buf))
	}
	rows := make([]relation.Row, 0, n)
	off := 0
	for i := 0; i < n; i++ {
		row, sz, err := relation.DecodeRow(buf[off:])
		if err != nil {
			return nil, fmt.Errorf("%w: row %d: %v", ErrCorruptPage, i, err)
		}
		if len(row) != schema.Arity() {
			return nil, fmt.Errorf("%w: row %d has arity %d, schema %s", ErrCorruptPage, i, len(row), schema)
		}
		for j, v := range row {
			if v.Kind() != schema.Cols[j].Kind {
				return nil, fmt.Errorf("%w: row %d column %s has kind %v, want %v",
					ErrCorruptPage, i, schema.Cols[j].Name, v.Kind(), schema.Cols[j].Kind)
			}
		}
		rows = append(rows, row)
		off += sz
	}
	if off != len(buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d rows", ErrCorruptPage, len(buf)-off, n)
	}
	return rows, nil
}
