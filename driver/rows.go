package driver

import (
	"database/sql/driver"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
)

// Rows iterates one result set. String columns scan as string; time
// (chronon) and int columns scan as int64 — chronons up to
// interval.Forever (2^63-2) survive the wire exactly: the binary frame
// carries them as varints, and JSON as integer literals the driver
// decodes with json.Number, never float64.
type Rows struct {
	cols  []wireColumn
	json  [][]any  // rows of a JSON answer
	frame []byte   // encoded rows, or pairs over cls, not yet returned
	cls   *classes // the class tables of a classes-layout frame
	n, i  int
}

var (
	_ driver.Rows                           = (*Rows)(nil)
	_ driver.RowsColumnTypeDatabaseTypeName = (*Rows)(nil)
	_ driver.RowsColumnTypeScanType         = (*Rows)(nil)
)

// Columns returns the result column names.
func (r *Rows) Columns() []string {
	out := make([]string, len(r.cols))
	for i, c := range r.cols {
		out[i] = c.Name
	}
	return out
}

// Close releases the buffered rows.
func (r *Rows) Close() error {
	r.json, r.frame, r.cls, r.n = nil, nil, nil, 0
	return nil
}

// Next yields the next row, or io.EOF.
func (r *Rows) Next(dest []driver.Value) error {
	if r.i >= r.n {
		return io.EOF
	}
	r.i++
	if r.cls != nil {
		r.frame = r.cls.next(r.frame, dest)
		return nil
	}
	if r.json == nil {
		n, _, err := walkRow(r.frame, dest)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		r.frame = r.frame[n:]
		return nil
	}
	row := r.json[r.i-1]
	if len(row) != len(dest) {
		return fmt.Errorf("tdb: row arity %d, expected %d", len(row), len(dest))
	}
	for j, cell := range row {
		switch v := cell.(type) {
		case string:
			dest[j] = v
		case json.Number:
			n, err := v.Int64()
			if err != nil {
				return fmt.Errorf("tdb: column %s: %q is not an int64: %w", r.cols[j].Name, v.String(), err)
			}
			dest[j] = n
		default:
			return fmt.Errorf("tdb: column %s: unexpected wire value %T", r.cols[j].Name, cell)
		}
	}
	return nil
}

// ColumnTypeDatabaseTypeName reports STRING, INT or TIME — refined to
// TIME_START / TIME_END on the two columns the schema designates as the
// tuple lifespan interval [ValidFrom, ValidTo).
func (r *Rows) ColumnTypeDatabaseTypeName(i int) string {
	c := r.cols[i]
	if c.Kind == "time" && c.Temporal != "" {
		return "TIME_" + strings.ToUpper(c.Temporal)
	}
	return strings.ToUpper(c.Kind)
}

// ColumnTypeScanType reports string for string columns and int64 for
// time and int columns.
func (r *Rows) ColumnTypeScanType(i int) reflect.Type {
	if r.cols[i].Kind == "string" {
		return reflect.TypeOf("")
	}
	return reflect.TypeOf(int64(0))
}
