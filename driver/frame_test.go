package driver

import (
	"database/sql/driver"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/value"
)

// testFrame builds a result frame the way the server lays it out, with
// the relation row codec the server uses.
func testFrame(header string, rows ...relation.Row) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(header)))
	b = append(b, header...)
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, r := range rows {
		b = relation.AppendRow(b, r)
	}
	return b
}

const twoColumns = `{"columns":[{"name":"Name","kind":"string"},{"name":"To","kind":"time","temporal":"end"}],"elapsed_ns":7}`

func TestDecodeFrame(t *testing.T) {
	frame := testFrame(twoColumns,
		relation.Row{value.String_("Ünï 名前"), value.TimeVal(interval.Forever)},
		relation.Row{value.String_(""), value.TimeVal(-3)},
	)
	resp, err := decodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Columns) != 2 || resp.Columns[1].Temporal != "end" || resp.ElapsedNS != 7 || resp.n != 2 {
		t.Fatalf("header decoded as %+v", resp)
	}
	rows := resp.rows()
	dest := make([]driver.Value, 2)
	want := [][]driver.Value{{"Ünï 名前", int64(interval.Forever)}, {"", int64(-3)}}
	for i, w := range want {
		if err := rows.Next(dest); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if dest[0] != w[0] || dest[1] != w[1] {
			t.Fatalf("row %d = %v, want %v", i, dest, w)
		}
	}
	if err := rows.Next(dest); err != io.EOF {
		t.Fatalf("after the last row: %v, want io.EOF", err)
	}
	// Every strict prefix is refused up front with ErrBadFrame.
	for n := 0; n < len(frame); n++ {
		if _, err := decodeFrame(frame[:n]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("prefix of %d bytes: error %v, want ErrBadFrame", n, err)
		}
	}
}

// FuzzResultFrame feeds arbitrary server bytes to the frame decoder. It
// must refuse them with ErrBadFrame or accept a frame whose every row
// then scans without error; it must never panic.
func FuzzResultFrame(f *testing.F) {
	f.Add(testFrame(twoColumns, relation.Row{value.String_("a"), value.TimeVal(interval.Forever)}))
	f.Add(testFrame(`{"columns":[],"contradiction":true}`))
	f.Add(testFrame(`{"columns":[{"name":"n","kind":"int"}]}`, relation.Row{value.Int(-1)}, relation.Row{value.Int(1 << 40)}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		resp, err := decodeFrame(b)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		rows := resp.rows()
		dest := make([]driver.Value, len(resp.Columns))
		for i := 0; ; i++ {
			err := rows.Next(dest)
			if err == io.EOF {
				if i != resp.n {
					t.Fatalf("%d rows scanned, frame declares %d", i, resp.n)
				}
				return
			}
			if err != nil {
				t.Fatalf("accepted frame fails at row %d: %v", i, err)
			}
		}
	})
}
