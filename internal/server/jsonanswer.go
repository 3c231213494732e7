package server

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"tdb/internal/engine"
	"tdb/internal/relation"
	"tdb/internal/value"
)

// encodeAnswerJSON writes the JSON QueryResponse of one answer (nil when
// nothing was executed): byte for byte what encoding/json writes for
// QueryResponse{hdr, encodeRows(rows)}, without building the [][]any. A
// factored answer's cells are encoded once per class, and each row is
// assembled from its two classes' encodings.
func encodeAnswerJSON(hdr *ResultHeader, a *engine.Answer) ([]byte, error) {
	h, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	// The header's fields come first in QueryResponse, then "rows".
	dst := append(h[:len(h)-1], `,"rows":[`...)
	switch {
	case a == nil:
	case a.Factored() != nil:
		dst = appendClassRowsJSON(dst, a.Factored())
	default:
		dst = appendRowsJSON(dst, a.Rows())
	}
	return append(dst, "]}"...), nil
}

// appendRowsJSON appends rows as comma-separated JSON arrays.
func appendRowsJSON(dst []byte, rows []relation.Row) []byte {
	for i, r := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range r {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendValueJSON(dst, v)
		}
		dst = append(dst, ']')
	}
	return dst
}

// classCells is one side's class sub-rows as JSON: cell c of class k is
// buf[off[k*arity+c]:off[k*arity+c+1]].
type classCells struct {
	buf   []byte
	off   []int
	arity int
}

func encodeClassCells(rows []relation.Row, arity int) classCells {
	cc := classCells{off: make([]int, 1, len(rows)*arity+1), arity: arity}
	for _, r := range rows {
		for _, v := range r {
			cc.buf = appendValueJSON(cc.buf, v)
			cc.off = append(cc.off, len(cc.buf))
		}
	}
	return cc
}

// row is the JSON of class k's cells, back to back.
func (cc *classCells) row(k int32) int {
	return cc.off[(int(k)+1)*cc.arity] - cc.off[int(k)*cc.arity]
}

// appendClassRowsJSON appends a factored answer's rows as comma-separated
// JSON arrays, each cell copied from its class's encoding.
func appendClassRowsJSON(dst []byte, f *engine.Factored) []byte {
	var arity [2]int
	for _, c := range f.Cols {
		arity[c.Side]++
	}
	sides := [2]classCells{encodeClassCells(f.Classes[0], arity[0]), encodeClassCells(f.Classes[1], arity[1])}
	// Size the output exactly: brackets, commas and both classes' cells.
	size := len(dst) + max(f.Len()-1, 0) + f.Len()*(2+max(len(f.Cols)-1, 0))
	for k := 0; k < f.Len(); k++ {
		l, r := f.Pair(k)
		size += sides[0].row(l) + sides[1].row(r)
	}
	out := make([]byte, len(dst), size)
	copy(out, dst)
	//tdb:hotpath
	for k := 0; k < f.Len(); k++ {
		l, r := f.Pair(k)
		if k > 0 {
			out = append(out, ',')
		}
		out = append(out, '[')
		for i, c := range f.Cols {
			if i > 0 {
				out = append(out, ',')
			}
			cc, class := &sides[c.Side], int(l)
			if c.Side == 1 {
				class = int(r)
			}
			cell := class*cc.arity + c.Cell
			out = append(out, cc.buf[cc.off[cell]:cc.off[cell+1]]...)
		}
		out = append(out, ']')
	}
	return out
}

// appendValueJSON appends one cell as encodeRows renders it: a string as
// a JSON string, time and int as an integer.
func appendValueJSON(dst []byte, v value.Value) []byte {
	if v.Kind() == value.KindString {
		return appendStringJSON(dst, v.AsString())
	}
	return strconv.AppendInt(dst, v.AsInt(), 10)
}

const hexDigits = "0123456789abcdef"

// appendStringJSON appends s as encoding/json quotes a string: HTML
// characters, control characters, U+2028 and U+2029 escaped, and each
// byte of invalid UTF-8 replaced by U+FFFD.
func appendStringJSON(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
