package driver

import (
	"database/sql/driver"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// frameContentType is the media type of the binary result frame. The
// driver names it in the Accept header of every query and execute
// request; a server that does not speak it answers JSON, which the
// driver still reads.
//
//	frame   = u32le(len(header)) header layout
//	header  = the JSON answer's fields other than "rows"
//	layout  = 0x00 rows | 0x01 classes
//	rows    = uvarint(count) row...
//	classes = colmap side side pairs
//	colmap  = per header column: side byte (0 left, 1 right), uvarint(cell)
//	side    = uvarint(arity) uvarint(count) row...   each row has arity cells
//	pairs   = uvarint(count) (uvarint(left class) uvarint(right class))...
//	row     = uvarint(cells) cell...
//	cell    = kind byte (0 int, 1 string, 2 time), then
//	            int, time: zig-zag varint
//	            string:    uvarint(len) bytes
//
// In the classes layout, answer row k is the k-th pair: its cell c is cell
// colmap[c].cell of the pair's class on side colmap[c].side.
const frameContentType = "application/vnd.tdb.frame.v2"

// Cell kinds of the row encoding.
const (
	kindInt    = 0
	kindString = 1
	kindTime   = 2
)

// The frame's layout tags.
const (
	layoutRows    = 0
	layoutClasses = 1
)

// readAnswer decodes a query or execute answer as the frame or as JSON,
// following the response's Content-Type.
func readAnswer(resp *http.Response) (*queryResponse, error) {
	if resp.Header.Get("Content-Type") != frameContentType {
		var out queryResponse
		dec := json.NewDecoder(resp.Body)
		dec.UseNumber()
		if err := dec.Decode(&out); err != nil {
			return nil, err
		}
		out.n = len(out.Rows)
		return &out, nil
	}
	var body []byte
	var err error
	if n := resp.ContentLength; n >= 0 && n <= maxSizedBody {
		body = make([]byte, n)
		_, err = io.ReadFull(resp.Body, body)
	} else {
		body, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		return nil, err
	}
	return decodeFrame(body)
}

// maxSizedBody is the largest declared Content-Length the driver
// allocates up front; a larger or undeclared body is read as it arrives.
const maxSizedBody = 64 << 20

// decodeFrame parses a binary result frame. It walks every row, class
// and pair once, so a truncated or corrupt frame is refused here with
// ErrBadFrame — never half-way through Rows.Next.
func decodeFrame(body []byte) (*queryResponse, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadFrame, len(body))
	}
	hl := uint64(binary.LittleEndian.Uint32(body))
	if hl > uint64(len(body)-4) {
		return nil, fmt.Errorf("%w: header of %d bytes in a %d-byte frame", ErrBadFrame, hl, len(body))
	}
	var out queryResponse
	if err := json.Unmarshal(body[4:4+hl], &out); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadFrame, err)
	}
	// A "rows" member in the header is not the answer; the frame's are.
	out.Rows = nil
	rest := body[4+hl:]
	if len(rest) == 0 {
		return nil, fmt.Errorf("%w: no layout tag", ErrBadFrame)
	}
	var err error
	switch rest[0] {
	case layoutRows:
		err = out.decodeRows(rest[1:])
	case layoutClasses:
		out.cls, err = decodeClasses(rest[1:], len(out.Columns))
		if err == nil {
			out.frame, out.n = out.cls.pairs, out.cls.n
		}
	default:
		err = fmt.Errorf("unknown layout %d", rest[0])
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return &out, nil
}

// decodeRows checks the rows layout and keeps its encoded rows, which
// Rows.Next decodes as it goes.
func (q *queryResponse) decodeRows(rows []byte) error {
	count, w := binary.Uvarint(rows)
	if w <= 0 {
		return fmt.Errorf("bad row count")
	}
	rows = rows[w:]
	off := 0
	for i := uint64(0); i < count; i++ {
		n, cells, err := walkRow(rows[off:], nil)
		if err != nil {
			return fmt.Errorf("row %d: %v", i, err)
		}
		if cells != len(q.Columns) {
			return fmt.Errorf("row %d has %d cells for %d columns", i, cells, len(q.Columns))
		}
		off += n
	}
	if off != len(rows) {
		return fmt.Errorf("%d bytes after %d rows", len(rows)-off, count)
	}
	q.frame, q.n = rows, int(count)
	return nil
}

// classes is a classes-layout answer, decoded: each side's class cells
// boxed once, and the pairs, every index checked against its table.
type classes struct {
	cols  []sideCell
	cells [2][]driver.Value // class k's cells: cells[s][k*arity[s]:][:arity[s]]
	arity [2]int
	pairs []byte // n pairs of uvarints, each within its side's classes
	n     int
}

// sideCell places one answer column: cell cell of a side's classes.
type sideCell struct {
	side, cell int
}

func decodeClasses(b []byte, width int) (*classes, error) {
	c := &classes{cols: make([]sideCell, width)}
	for i := range c.cols {
		if len(b) == 0 {
			return nil, fmt.Errorf("truncated column map")
		}
		side := b[0]
		if side > 1 {
			return nil, fmt.Errorf("column %d: side %d", i, side)
		}
		cell, w := binary.Uvarint(b[1:])
		if w <= 0 || cell >= uint64(width) {
			return nil, fmt.Errorf("column %d: bad cell", i)
		}
		c.cols[i] = sideCell{side: int(side), cell: int(cell)}
		b = b[1+w:]
	}
	var count [2]int
	for s := range c.cells {
		arity, w := binary.Uvarint(b)
		if w <= 0 || arity > uint64(width) {
			return nil, fmt.Errorf("side %d: bad arity", s)
		}
		b = b[w:]
		n, w := binary.Uvarint(b)
		// Every class takes at least one byte, and every cell two.
		if w <= 0 || n > uint64(len(b)-w) || arity*n > uint64(len(b)-w)/2 {
			return nil, fmt.Errorf("side %d: class count overruns the frame", s)
		}
		b = b[w:]
		c.arity[s], count[s] = int(arity), int(n)
		c.cells[s] = make([]driver.Value, int(arity)*int(n))
		for k := 0; k < int(n); k++ {
			m, cells, err := walkRow(b, c.cells[s][k*int(arity):(k+1)*int(arity)])
			if err != nil {
				return nil, fmt.Errorf("side %d class %d: %v", s, k, err)
			}
			if cells != int(arity) {
				return nil, fmt.Errorf("side %d class %d has %d cells, arity %d", s, k, cells, arity)
			}
			b = b[m:]
		}
	}
	for i, sc := range c.cols {
		if sc.cell >= c.arity[sc.side] {
			return nil, fmt.Errorf("column %d: cell %d of side %d, whose arity is %d", i, sc.cell, sc.side, c.arity[sc.side])
		}
	}
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w)/2 {
		return nil, fmt.Errorf("pair count overruns the frame")
	}
	b = b[w:]
	off := 0
	//tdb:hotpath
	for k := uint64(0); k < n; k++ {
		l, w := binary.Uvarint(b[off:])
		if w <= 0 || l >= uint64(count[0]) {
			return nil, fmt.Errorf("pair %d: bad left class", k)
		}
		off += w
		r, w := binary.Uvarint(b[off:])
		if w <= 0 || r >= uint64(count[1]) {
			return nil, fmt.Errorf("pair %d: bad right class", k)
		}
		off += w
	}
	if off != len(b) {
		return nil, fmt.Errorf("%d bytes after %d pairs", len(b)-off, n)
	}
	c.pairs, c.n = b, int(n)
	return c, nil
}

// next copies the cells of the answer row the front of pairs encodes
// into dest and returns the rest of pairs. decodeClasses checked every
// pair, so next cannot fail.
func (c *classes) next(pairs []byte, dest []driver.Value) []byte {
	l, w := binary.Uvarint(pairs)
	r, w2 := binary.Uvarint(pairs[w:])
	rows := [2][]driver.Value{
		c.cells[0][int(l)*c.arity[0]:],
		c.cells[1][int(r)*c.arity[1]:],
	}
	//tdb:hotpath
	for i, sc := range c.cols {
		dest[i] = rows[sc.side][sc.cell]
	}
	return pairs[w+w2:]
}

// walkRow reads one encoded row from the front of s and returns its
// length and cell count. With a non-nil dest of the row's arity it also
// stores the cells: strings as string, int and time as int64.
func walkRow(s []byte, dest []driver.Value) (n, cells int, err error) {
	c, off := binary.Uvarint(s)
	if off <= 0 || c > uint64(len(s)) {
		return 0, 0, fmt.Errorf("bad cell count")
	}
	if dest != nil && c != uint64(len(dest)) {
		return 0, 0, fmt.Errorf("row arity %d, expected %d", c, len(dest))
	}
	for j := 0; j < int(c); j++ {
		if off >= len(s) {
			return 0, 0, fmt.Errorf("truncated cell")
		}
		kind := s[off]
		off++
		switch kind {
		case kindString:
			l, w := binary.Uvarint(s[off:])
			if w <= 0 || l > uint64(len(s)-off-w) {
				return 0, 0, fmt.Errorf("truncated string")
			}
			off += w
			if dest != nil {
				dest[j] = string(s[off : off+int(l)])
			}
			off += int(l)
		case kindInt, kindTime:
			x, w := binary.Varint(s[off:])
			if w <= 0 {
				return 0, 0, fmt.Errorf("bad varint")
			}
			off += w
			if dest != nil {
				dest[j] = x
			}
		default:
			return 0, 0, fmt.Errorf("unknown cell kind %d", kind)
		}
	}
	return off, int(c), nil
}
