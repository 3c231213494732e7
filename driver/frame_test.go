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

// testFrame builds a rows-layout result frame the way the server lays it
// out, with the relation row codec the server uses.
func testFrame(header string, rows ...relation.Row) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(header)))
	b = append(b, header...)
	b = append(b, layoutRows)
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

// classFrame is a classes-layout result frame, laid out field by field
// so a test can corrupt any one of them.
type classFrame struct {
	header  string
	cols    [][2]int // per column: side byte, cell
	arity   [2]int
	classes [2][]relation.Row
	pairs   [][2]int
	count   int // the declared pair count when nonzero; len(pairs) otherwise
	extra   []byte
}

func (c classFrame) bytes() []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(c.header)))
	b = append(b, c.header...)
	b = append(b, layoutClasses)
	for _, col := range c.cols {
		b = append(b, byte(col[0]))
		b = binary.AppendUvarint(b, uint64(col[1]))
	}
	for s, rows := range c.classes {
		b = binary.AppendUvarint(b, uint64(c.arity[s]))
		b = binary.AppendUvarint(b, uint64(len(rows)))
		for _, r := range rows {
			b = relation.AppendRow(b, r)
		}
	}
	n := c.count
	if n == 0 {
		n = len(c.pairs)
	}
	b = binary.AppendUvarint(b, uint64(n))
	for _, p := range c.pairs {
		b = binary.AppendUvarint(b, uint64(p[0]))
		b = binary.AppendUvarint(b, uint64(p[1]))
	}
	return append(b, c.extra...)
}

const threeColumns = `{"columns":[{"name":"Name","kind":"string"},{"name":"Peer","kind":"string"},{"name":"From","kind":"time","temporal":"start"}],"elapsed_ns":3}`

// validClasses is a three-column join answer: Name and From from the
// left side's two classes, Peer from the right side's two.
func validClasses() classFrame {
	s, tv := value.String_, value.TimeVal
	return classFrame{
		header: threeColumns,
		cols:   [][2]int{{0, 0}, {1, 0}, {0, 1}},
		arity:  [2]int{2, 1},
		classes: [2][]relation.Row{
			{{s("Ünï"), tv(interval.Forever)}, {s(""), tv(-3)}},
			{{s("x")}, {s("y")}},
		},
		pairs: [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}},
	}
}

func TestDecodeClassFrame(t *testing.T) {
	frame := validClasses().bytes()
	resp, err := decodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Columns) != 3 || resp.n != 4 {
		t.Fatalf("header decoded as %+v", resp)
	}
	forever := int64(interval.Forever)
	want := [][]driver.Value{
		{"Ünï", "x", forever}, {"", "x", int64(-3)}, {"Ünï", "y", forever}, {"", "y", int64(-3)},
	}
	rows := resp.rows()
	dest := make([]driver.Value, 3)
	for i, w := range want {
		if err := rows.Next(dest); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		for j := range w {
			if dest[j] != w[j] {
				t.Fatalf("row %d = %v, want %v", i, dest, w)
			}
		}
	}
	if err := rows.Next(dest); err != io.EOF {
		t.Fatalf("after the last row: %v, want io.EOF", err)
	}
	for n := 0; n < len(frame); n++ {
		if _, err := decodeFrame(frame[:n]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("prefix of %d bytes: error %v, want ErrBadFrame", n, err)
		}
	}
	// Next only copies boxed cells.
	rows = resp.rows()
	if a := testing.AllocsPerRun(1, func() {
		for rows.Next(dest) == nil {
		}
	}); a != 0 {
		t.Fatalf("Next allocates %.0f times over the answer", a)
	}
}

// Zero-arity sides: every column from one side, or no column at all.
func TestDecodeClassFrameZeroArity(t *testing.T) {
	s := value.String_
	one := classFrame{
		header:  `{"columns":[{"name":"Peer","kind":"string"}]}`,
		cols:    [][2]int{{1, 0}},
		arity:   [2]int{0, 1},
		classes: [2][]relation.Row{{{}}, {{s("x")}, {s("y")}}},
		pairs:   [][2]int{{0, 1}, {0, 0}},
	}
	none := classFrame{
		header:  `{"columns":[]}`,
		classes: [2][]relation.Row{{{}}, {{}}},
		pairs:   [][2]int{{0, 0}, {0, 0}, {0, 0}},
	}
	for name, c := range map[string]struct {
		f    classFrame
		want []string
	}{"one side": {one, []string{"y", "x"}}, "no column": {none, []string{"", "", ""}}} {
		resp, err := decodeFrame(c.f.bytes())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows := resp.rows()
		dest := make([]driver.Value, len(resp.Columns))
		for i, w := range c.want {
			if err := rows.Next(dest); err != nil {
				t.Fatalf("%s row %d: %v", name, i, err)
			}
			if len(dest) > 0 && dest[0] != w {
				t.Fatalf("%s row %d = %v, want %q", name, i, dest, w)
			}
		}
		if err := rows.Next(dest); err != io.EOF {
			t.Fatalf("%s: after the last row: %v", name, err)
		}
	}
}

// A classes-layout frame that indexes past a table, places a column past
// its side's arity, names a third side or overruns itself is refused up
// front with ErrBadFrame.
func TestDecodeClassFrameRefuses(t *testing.T) {
	s := value.String_
	for name, corrupt := range map[string]func(*classFrame){
		"left class past its table":  func(c *classFrame) { c.pairs[2] = [2]int{2, 0} },
		"right class past its table": func(c *classFrame) { c.pairs[3] = [2]int{0, 2} },
		// Cell 1 is inside the three-column answer, but not inside the
		// right side's one cell.
		"cell at its side's arity": func(c *classFrame) { c.cols[1] = [2]int{1, 1} },
		"cell past the answer":     func(c *classFrame) { c.cols[0] = [2]int{0, 9} },
		"side byte 2":              func(c *classFrame) { c.cols[2] = [2]int{2, 0} },
		"pair count overrun":       func(c *classFrame) { c.count = 1000 },
		"trailing bytes":           func(c *classFrame) { c.extra = []byte{0} },
		"class of the wrong arity": func(c *classFrame) { c.classes[1][1] = relation.Row{s("y"), s("z")} },
		"arity past the answer":    func(c *classFrame) { c.arity[1] = 4 },
		"classes past a zero-arity side": func(c *classFrame) {
			c.arity[1], c.classes[1] = 0, []relation.Row{{}, {s("y")}}
		},
	} {
		c := validClasses()
		corrupt(&c)
		if _, err := decodeFrame(c.bytes()); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: error %v, want ErrBadFrame", name, err)
		}
	}
	bad := validClasses().bytes()
	bad[4+len(threeColumns)] = 2 // an unknown layout tag
	if _, err := decodeFrame(bad); !errors.Is(err, ErrBadFrame) {
		t.Errorf("unknown layout: error %v, want ErrBadFrame", err)
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
	f.Add(validClasses().bytes())
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
