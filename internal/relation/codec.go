package relation

import (
	"encoding/binary"
	"errors"
	"slices"
	"strconv"

	"tdb/internal/interval"
	"tdb/internal/value"
)

// The row codec is the one binary encoding of a row. Row identity (the
// Distinct projection, Relation.Dedup, the live delta hash and multisets)
// and row transport (heap-file pages, the /v1/ binary result frame) all
// rest on it. The layout is self-delimiting:
//
//	row  = uvarint(cells) cell...
//	cell = kind byte, then
//	         int, time: varint(payload)   zig-zag, as encoding/binary.PutVarint
//	         string:    uvarint(len) bytes
//
// kind is the value.Kind: 0 int, 1 string, 2 time. Two rows encode to the
// same bytes exactly when they have the same arity and, cell by cell, the
// same kind and payload (Row.Identical).

// ErrCodec is matched (errors.Is) by every row-decode failure.
var ErrCodec = errors.New("relation: malformed row encoding")

// CodecError locates a row-decode failure. It matches ErrCodec.
type CodecError struct {
	Offset int // byte offset of the failure within the decoded buffer
	Reason string
}

func (e *CodecError) Error() string {
	return ErrCodec.Error() + " at byte " + strconv.Itoa(e.Offset) + ": " + e.Reason
}

// Is makes errors.Is(err, ErrCodec) hold.
func (e *CodecError) Is(target error) bool { return target == ErrCodec }

// EncodedSize returns len(AppendRow(nil, r)).
func EncodedSize(r Row) int {
	n := uvarintLen(uint64(len(r)))
	for _, v := range r {
		if v.Kind() == value.KindString {
			s := v.AsString()
			n += 1 + uvarintLen(uint64(len(s))) + len(s)
		} else {
			n += 1 + uvarintLen(zigzag(v.AsInt()))
		}
	}
	return n
}

// AppendRow appends the codec encoding of r to dst, growing it at most
// once.
//
//tdb:hotpath
func AppendRow(dst []byte, r Row) []byte {
	start, n := len(dst), EncodedSize(r)
	dst = slices.Grow(dst, n)[:start+n]
	buf := dst[start:]
	off := binary.PutUvarint(buf, uint64(len(r)))
	for _, v := range r {
		k := v.Kind()
		buf[off] = byte(k)
		off++
		if k == value.KindString {
			s := v.AsString()
			off += binary.PutUvarint(buf[off:], uint64(len(s)))
			off += copy(buf[off:], s)
		} else {
			off += binary.PutVarint(buf[off:], v.AsInt())
		}
	}
	return dst
}

// DecodeRow parses one encoded row from the front of b and returns it
// with the number of bytes consumed. Any malformed input — truncation, an
// unknown kind, an overlong varint, a cell count the buffer cannot hold —
// is a *CodecError; DecodeRow never panics.
func DecodeRow(b []byte) (Row, int, error) {
	cells, off := binary.Uvarint(b)
	if off <= 0 {
		return nil, 0, &CodecError{Offset: 0, Reason: "bad cell count"}
	}
	// Every cell takes at least two bytes, which bounds the allocation
	// a hostile count can ask for.
	if cells > uint64(len(b)-off)/2 {
		return nil, 0, &CodecError{Offset: 0, Reason: "cell count " + strconv.FormatUint(cells, 10) + " exceeds the buffer"}
	}
	row := make(Row, cells)
	for i := range row {
		if off >= len(b) {
			return nil, 0, &CodecError{Offset: off, Reason: "truncated cell"}
		}
		k := value.Kind(b[off])
		off++
		switch k {
		case value.KindString:
			n, w := binary.Uvarint(b[off:])
			if w <= 0 || n > uint64(len(b)-off-w) {
				return nil, 0, &CodecError{Offset: off, Reason: "truncated string"}
			}
			off += w
			row[i] = value.String_(string(b[off : off+int(n)]))
			off += int(n)
		case value.KindInt, value.KindTime:
			x, w := binary.Varint(b[off:])
			if w <= 0 {
				return nil, 0, &CodecError{Offset: off, Reason: "bad varint"}
			}
			off += w
			if k == value.KindInt {
				row[i] = value.Int(x)
			} else {
				row[i] = value.TimeVal(interval.Time(x))
			}
		default:
			return nil, 0, &CodecError{Offset: off - 1, Reason: "unknown kind " + strconv.Itoa(int(k))}
		}
	}
	return row, off, nil
}

// HashInit is the initial state of the row hash: the 64-bit FNV-1a offset
// basis.
const HashInit uint64 = 14695981039346656037

const hashPrime = 1099511628211

// HashRow folds the codec encoding of r into the running 64-bit FNV-1a
// state h without building it: from HashInit it is the FNV-1a hash of
// AppendRow(nil, r). Because encoded rows are self-delimiting, folding a
// sequence of rows hashes their concatenation unambiguously.
//
//tdb:hotpath
func HashRow(h uint64, r Row) uint64 {
	h = hashUvarint(h, uint64(len(r)))
	for _, v := range r {
		h = HashValue(h, v)
	}
	return h
}

// hashRowOn is HashRow of r's projection onto cols, without building it.
//
//tdb:hotpath
func hashRowOn(h uint64, r Row, cols []int) uint64 {
	h = hashUvarint(h, uint64(len(cols)))
	for _, c := range cols {
		h = HashValue(h, r[c])
	}
	return h
}

// HashValue folds the codec encoding of one cell into h.
func HashValue(h uint64, v value.Value) uint64 {
	k := v.Kind()
	h = (h ^ uint64(k)) * hashPrime
	if k == value.KindString {
		s := v.AsString()
		h = hashUvarint(h, uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * hashPrime
		}
		return h
	}
	return hashUvarint(h, zigzag(v.AsInt()))
}

// hashUvarint folds the uvarint encoding of x into h.
func hashUvarint(h, x uint64) uint64 {
	for x >= 0x80 {
		h = (h ^ uint64(byte(x)|0x80)) * hashPrime
		x >>= 7
	}
	return (h ^ x) * hashPrime
}

// zigzag maps a signed payload to the unsigned value binary.PutVarint
// encodes.
func zigzag(x int64) uint64 {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return ux
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
