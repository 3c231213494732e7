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
//	frame  = u32le(len(header)) header rows
//	header = the JSON answer's fields other than "rows"
//	rows   = uvarint(count) row...
//	row    = uvarint(cells) cell...
//	cell   = kind byte (0 int, 1 string, 2 time), then
//	           int, time: zig-zag varint
//	           string:    uvarint(len) bytes
const frameContentType = "application/vnd.tdb.frame"

// Cell kinds of the row encoding.
const (
	kindInt    = 0
	kindString = 1
	kindTime   = 2
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

// decodeFrame parses a binary result frame. It walks every row once, so
// a truncated or corrupt frame is refused here with ErrBadFrame — never
// half-way through Rows.Next.
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
	rows := body[4+hl:]
	count, w := binary.Uvarint(rows)
	if w <= 0 {
		return nil, fmt.Errorf("%w: bad row count", ErrBadFrame)
	}
	rows = rows[w:]
	off := 0
	for i := uint64(0); i < count; i++ {
		n, cells, err := walkRow(rows[off:], nil)
		if err != nil {
			return nil, fmt.Errorf("%w: row %d: %v", ErrBadFrame, i, err)
		}
		if cells != len(out.Columns) {
			return nil, fmt.Errorf("%w: row %d has %d cells for %d columns", ErrBadFrame, i, cells, len(out.Columns))
		}
		off += n
	}
	if off != len(rows) {
		return nil, fmt.Errorf("%w: %d bytes after %d rows", ErrBadFrame, len(rows)-off, count)
	}
	// A "rows" member in the header is not the answer; the frame's are.
	out.Rows, out.frame, out.n = nil, rows, int(count)
	return &out, nil
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
