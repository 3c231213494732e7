package relation

import (
	"testing"

	"tdb/internal/interval"
	"tdb/internal/value"
)

func tupleRows(t *testing.T) []Row {
	t.Helper()
	tuples := []Tuple{
		{S: "Tom", V: value.String_("Assistant"), Span: interval.Interval{Start: 1, End: 10}},
		{S: "Jane", V: value.String_("Professor"), Span: interval.Interval{Start: 5, End: interval.Forever}},
		{S: "Tom", V: value.String_("Lecturer"), Span: interval.Interval{Start: 10, End: 21}},
		{S: "", V: value.String_("Assistant"), Span: interval.Interval{Start: interval.MinTime, End: 3}},
	}
	rows := make([]Row, len(tuples))
	for i, tp := range tuples {
		rows[i] = TupleToRow(tp)
	}
	return rows
}

func TestBatchRoundTripTemporal(t *testing.T) {
	rows := tupleRows(t)
	b := BatchFromRows(TupleSchema, rows, nil)
	if b.Len() != len(rows) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(rows))
	}
	for i, r := range rows {
		if got := b.Row(i); !got.Identical(r) {
			t.Fatalf("row %d round-trip: got %v want %v", i, got, r)
		}
		if sp := b.Span(i); sp != r.Span(TupleSchema) {
			t.Fatalf("row %d span: got %v want %v", i, sp, r.Span(TupleSchema))
		}
	}
	back := b.Rows()
	if len(back) != len(rows) {
		t.Fatalf("Rows() returned %d rows, want %d", len(back), len(rows))
	}
	for i := range back {
		if !back[i].Identical(rows[i]) {
			t.Fatalf("Rows()[%d] = %v, want %v", i, back[i], rows[i])
		}
	}
	// Interning must collapse repeated surrogates: Tom, Jane, "" plus the
	// three job titles = 6 distinct strings across both string columns.
	if b.Intern.Len() != 6 {
		t.Fatalf("intern table has %d strings, want 6", b.Intern.Len())
	}
}

func TestBatchRoundTripSnapshot(t *testing.T) {
	snap := MustSchema([]Column{{Name: "id", Kind: value.KindInt}, {Name: "name", Kind: value.KindString}}, -1, -1)
	rows := []Row{
		{value.Int(1), value.String_("a")},
		{value.Int(-7), value.String_("b")},
		{value.Int(1), value.String_("a")},
	}
	b := BatchFromRows(snap, rows, nil)
	if b.TS != nil || b.TE != nil {
		t.Fatal("snapshot batch grew endpoint columns")
	}
	for i, r := range b.Rows() {
		if !r.Identical(rows[i]) {
			t.Fatalf("row %d: got %v want %v", i, r, rows[i])
		}
	}
}

func TestBatchSharedInterner(t *testing.T) {
	in := value.NewInterner()
	rows := tupleRows(t)
	b1 := BatchFromRows(TupleSchema, rows[:2], in)
	b2 := BatchFromRows(TupleSchema, rows[2:], in)
	if b1.Intern != in || b2.Intern != in {
		t.Fatal("batches did not adopt the shared interner")
	}
	// "Tom" appears in both batches; the shared table must hand back the
	// same id so cross-batch S comparisons are integer compares.
	sCol := TupleSchema.ColumnIndex("S")
	if b1.Cols[sCol].IDs[0] != b2.Cols[sCol].IDs[0] {
		t.Fatalf("Tom interned twice: %d vs %d", b1.Cols[sCol].IDs[0], b2.Cols[sCol].IDs[0])
	}
}

func TestBatchEmpty(t *testing.T) {
	b := BatchFromRows(TupleSchema, nil, nil)
	if b.Len() != 0 {
		t.Fatalf("empty batch Len = %d", b.Len())
	}
	if got := b.Rows(); len(got) != 0 {
		t.Fatalf("empty batch Rows() = %d rows", len(got))
	}
}

func TestBatchAppendRowArityPanics(t *testing.T) {
	b := NewBatch(TupleSchema, nil, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	b.AppendRow(Row{value.Int(1)})
}
