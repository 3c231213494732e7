package storage

import (
	"encoding/binary"
	"errors"
	"testing"

	"tdb/internal/interval"
	"tdb/internal/relation"
)

// FuzzDecodePage feeds arbitrary page images to the decoder. Each input
// is tried as is and again with its checksum repaired, so the fuzzer
// reaches the row decoder behind the checksum gate. Every failure must be
// a typed ErrCorruptPage, never a panic.
func FuzzDecodePage(f *testing.F) {
	p := newPage()
	p.tryAdd(relation.AppendRow(nil, makeRow("Smith", "Assistant", 1, 5)))
	p.tryAdd(relation.AppendRow(nil, makeRow("", "Ünï ∞", 0, interval.Forever)))
	p.finalize()
	f.Add(append([]byte(nil), p.buf[:p.used]...))
	f.Add([]byte{1, 0, 9, 0, 0, 0, 0, 0, 4})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		check := func(buf []byte) {
			rows, err := decodePage(buf, relation.TupleSchema)
			if err != nil {
				if !errors.Is(err, ErrCorruptPage) {
					t.Fatalf("untyped error: %v", err)
				}
				return
			}
			for _, r := range rows {
				if len(r) != relation.TupleSchema.Arity() {
					t.Fatalf("accepted row %v of the wrong arity", r)
				}
			}
		}
		check(b)
		if len(b) >= pageHeaderSize {
			fixed := append([]byte(nil), b...)
			if used := int(binary.LittleEndian.Uint16(fixed[2:4])); used >= pageHeaderSize && used <= len(fixed) {
				binary.LittleEndian.PutUint32(fixed[4:8], fnv32a(fixed[pageHeaderSize:used]))
			}
			check(fixed)
		}
	})
}
