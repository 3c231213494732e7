package stream

import (
	"errors"
	"fmt"
	"testing"

	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/value"
)

func batchTestRows(n int) []relation.Row {
	rows := make([]relation.Row, n)
	for i := range rows {
		rows[i] = relation.TupleToRow(relation.Tuple{
			S:    fmt.Sprintf("s%d", i%7),
			V:    value.String_(fmt.Sprintf("v%d", i%3)),
			Span: interval.Interval{Start: interval.Time(i), End: interval.Time(i + 5)},
		})
	}
	return rows
}

func TestBatchedUnbatchedRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 4, 5, 17} {
		rows := batchTestRows(n)
		out, err := Collect(Unbatched(Batched(FromSlice(rows), relation.TupleSchema, nil, 4)))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(out) != n {
			t.Fatalf("n=%d: got %d rows back", n, len(out))
		}
		for i := range out {
			if !out[i].Identical(rows[i]) {
				t.Fatalf("n=%d row %d: got %v want %v", n, i, out[i], rows[i])
			}
		}
	}
}

func TestBatchedBlockSizes(t *testing.T) {
	rows := batchTestRows(10)
	bs := Batched(FromSlice(rows), relation.TupleSchema, nil, 4)
	var sizes []int
	for {
		b, ok := bs.Next()
		if !ok {
			break
		}
		sizes = append(sizes, b.Len())
	}
	if bs.Err() != nil {
		t.Fatal(bs.Err())
	}
	want := []int{4, 4, 2}
	if len(sizes) != len(want) {
		t.Fatalf("got %d batches %v, want %v", len(sizes), sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("batch sizes %v, want %v", sizes, want)
		}
	}
}

func TestBatchedPropagatesError(t *testing.T) {
	rows := batchTestRows(8)
	boom := errors.New("boom")
	src := FailAfter(FromSlice(rows), 6, boom)
	sink := Unbatched(Batched(src, relation.TupleSchema, nil, 4))
	var got int
	for {
		_, ok := sink.Next()
		if !ok {
			break
		}
		got++
	}
	if !errors.Is(sink.Err(), boom) {
		t.Fatalf("Err = %v, want boom", sink.Err())
	}
	if got != 6 {
		t.Fatalf("yielded %d rows before failing, want 6", got)
	}
}
