package relation

import (
	"bytes"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"tdb/internal/interval"
	"tdb/internal/value"
)

func codecRows() []Row {
	return []Row{
		{},
		{value.Int(0)},
		{value.Int(-1), value.Int(math.MinInt64), value.Int(math.MaxInt64)},
		{value.String_(""), value.String_("Smith"), value.String_("Ünïcødé ∞ 名前")},
		{value.String_("a"), value.String_("Full"), value.TimeVal(0), value.TimeVal(interval.Forever)},
		{value.TimeVal(-5), value.String_(string(make([]byte, 300)))},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	var buf []byte
	for _, r := range codecRows() {
		buf = AppendRow(buf, r)
	}
	off := 0
	for i, want := range codecRows() {
		got, n, err := DecodeRow(buf[off:])
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if !got.Identical(want) {
			t.Fatalf("row %d: decoded %v, want %v", i, got, want)
		}
		if n != EncodedSize(want) {
			t.Fatalf("row %d: consumed %d bytes, EncodedSize %d", i, n, EncodedSize(want))
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

// fnvOf is the standard library's FNV-1a over b, the reference HashRow
// must match.
func fnvOf(b []byte) uint64 {
	f := fnv.New64a()
	_, _ = f.Write(b)
	return f.Sum64()
}

func TestHashRowIsFNVOfTheCodec(t *testing.T) {
	for _, r := range codecRows() {
		if got, want := HashRow(HashInit, r), fnvOf(AppendRow(nil, r)); got != want {
			t.Fatalf("%v: HashRow %x, FNV-1a of the codec bytes %x", r, got, want)
		}
	}
	// Folding rows one after another hashes their concatenation.
	h, all := HashInit, []byte(nil)
	for _, r := range codecRows() {
		h = HashRow(h, r)
		all = AppendRow(all, r)
	}
	if h != fnvOf(all) {
		t.Fatal("folded row hashes differ from the hash of the concatenated encoding")
	}
}

// Int(5) and TimeVal(5) are Equal (the int/time coercion of comparisons)
// but not the same row: the codec, its hash and every set built on it
// keep them apart, as the old fmt-built keys did.
func TestIntAndTimeStayDistinct(t *testing.T) {
	a, b := Row{value.Int(5)}, Row{value.TimeVal(5)}
	if !a.Equal(b) {
		t.Fatal("Int(5) and TimeVal(5) should compare Equal")
	}
	if a.Identical(b) {
		t.Fatal("Int(5) and TimeVal(5) are Identical")
	}
	if bytes.Equal(AppendRow(nil, a), AppendRow(nil, b)) {
		t.Fatal("Int(5) and TimeVal(5) encode to the same bytes")
	}
	if HashRow(HashInit, a) == HashRow(HashInit, b) {
		t.Fatal("Int(5) and TimeVal(5) hash alike")
	}
	s := NewRowSet(nil, 2)
	if !s.Add(a) || !s.Add(b) || len(s.Rows) != 2 {
		t.Fatalf("RowSet merged Int(5) and TimeVal(5): %v", s.Rows)
	}
	r := &Relation{Name: "R", Rows: []Row{a, b, a.Clone(), b.Clone()}}
	r.Dedup()
	if len(r.Rows) != 2 || !r.Rows[0].Identical(a) || !r.Rows[1].Identical(b) {
		t.Fatalf("Dedup = %v, want [(5) (5)] as int then time", r.Rows)
	}
}

func TestDecodeRowRejectsMalformed(t *testing.T) {
	good := AppendRow(nil, Row{value.String_("Smith"), value.TimeVal(interval.Forever)})
	for n := 0; n < len(good); n++ {
		if _, _, err := DecodeRow(good[:n]); !errors.Is(err, ErrCodec) {
			t.Fatalf("truncation at %d: error %v, want ErrCodec", n, err)
		}
	}
	bad := map[string][]byte{
		"unknown kind":    {1, 9, 0},
		"huge cell count": {0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0},
		"overlong varint": {1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"string past end": {1, 1, 0x7f, 'a'},
	}
	for name, b := range bad {
		_, _, err := DecodeRow(b)
		var ce *CodecError
		if !errors.As(err, &ce) || !errors.Is(err, ErrCodec) {
			t.Errorf("%s: error %v, want a *CodecError matching ErrCodec", name, err)
		}
	}
}

// randomRows draws n rows of arity 3 from a small value pool, so most
// rows repeat; the pool mixes Int and TimeVal of the same payload.
func randomRows(rng *rand.Rand, n int) []Row {
	pool := []value.Value{
		value.Int(5), value.TimeVal(5), value.Int(0), value.TimeVal(interval.Forever),
		value.String_(""), value.String_("a"), value.String_("ab"), value.String_("∞"),
	}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]}
	}
	return rows
}

// firstOccurrences is the quadratic exact-equality reference for Dedup.
func firstOccurrences(rows []Row) []Row {
	var out []Row
	for _, r := range rows {
		seen := false
		for _, o := range out {
			if bytes.Equal(AppendRow(nil, o), AppendRow(nil, r)) {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, r)
		}
	}
	return out
}

func TestDedupKeepsFirstOccurrences(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		rows := randomRows(rng, rng.Intn(300))
		want := firstOccurrences(rows)
		r := &Relation{Name: "R", Rows: append([]Row(nil), rows...)}
		r.Dedup()
		// An undersized hint makes the set grow mid-stream.
		s := NewRowSet(nil, rng.Intn(4))
		for _, row := range rows {
			s.Add(row)
		}
		for name, got := range map[string][]Row{"Dedup": r.Rows, "RowSet": s.Rows} {
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: %d rows, want %d", trial, name, len(got), len(want))
			}
			for i := range want {
				if !got[i].Identical(want[i]) {
					t.Fatalf("trial %d %s: row %d = %v, want %v", trial, name, i, got[i], want[i])
				}
			}
		}
	}
}

// Rows whose hashes all share the table's last home slot form one probe
// chain that must wrap around to the front of the table, and every member
// must still be found there.
func TestRowSetProbeChainWraps(t *testing.T) {
	s := NewRowSet(nil, 16)
	size := len(s.slots)
	var colliding []Row
	for i := int64(0); len(colliding) < size/2-1; i++ {
		r := Row{value.Int(i)}
		if s.home(HashRow(HashInit, r)) == size-1 {
			colliding = append(colliding, r)
		}
	}
	for _, r := range colliding {
		if !s.Add(r) {
			t.Fatalf("%v reported present before insertion", r)
		}
	}
	if len(s.slots) != size {
		t.Fatalf("table grew from %d to %d slots; the chain test needs it fixed", size, len(s.slots))
	}
	// The chain starts at the last slot and wraps into slots 0, 1, ...
	if s.slots[size-1] != 1 {
		t.Fatalf("first member not in its home slot: %v", s.slots)
	}
	for k := 0; k < len(colliding)-1; k++ {
		if s.slots[k] != int32(k+2) {
			t.Fatalf("member %d not wrapped into slot %d: %v", k+1, k, s.slots)
		}
	}
	for _, r := range colliding {
		if s.Add(r.Clone()) {
			t.Fatalf("%v at the end of a wrapped chain not found", r)
		}
	}
	if len(s.Rows) != len(colliding) {
		t.Fatalf("set has %d members, want %d", len(s.Rows), len(colliding))
	}
}

// probeLengths returns the mean and longest probe sequence a lookup of
// each member walks, its home slot counting as one.
func probeLengths(s *RowSet) (mean float64, longest int) {
	mask := len(s.slots) - 1
	total := 0
	for i, j := range s.slots {
		if j == 0 {
			continue
		}
		n := (i-s.home(s.hash(s.Rows[j-1])))&mask + 1
		total += n
		longest = max(longest, n)
	}
	return float64(total) / float64(len(s.Rows)), longest
}

// Rows that differ only in a trailing string spread over the table: the
// finalizer carries FNV-1a's last bytes into the home slot's top bits,
// which raw FNV-1a leaves chaining (mean probe 88 at n=1000 without it).
func TestRowSetProbeLengthOverSingleStrings(t *testing.T) {
	for _, n := range []int{1000, 40000} {
		s := NewRowSet(nil, n)
		for i := 0; i < n; i++ {
			s.Add(Row{value.String_("x" + strconv.Itoa(i))})
		}
		mean, longest := probeLengths(s)
		if mean > 2 || longest > 40 {
			t.Errorf("n=%d: mean probe %.2f, longest %d; want ≤ 2 and ≤ 40", n, mean, longest)
		}
	}
}

// A projected set classes rows by the cells at its columns alone, keeps
// the first full row of each class, and reports a class's index on every
// later insert — the same classes a RowSet of the built sub-rows finds.
func TestRowSetOnClassesBySubRow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, cols := range [][]int{{0}, {2, 0}, {1, 1}, {}} {
		rows := randomRows(rng, 400)
		on := NewRowSetOn(nil, 4, cols)
		built := NewRowSet(nil, 4)
		for _, r := range rows {
			sub := make(Row, len(cols))
			for i, c := range cols {
				sub[i] = r[c]
			}
			if got, want := hashRowOn(HashInit, r, cols), HashRow(HashInit, sub); got != want {
				t.Fatalf("cols %v, row %v: hashRowOn %x, HashRow of the sub-row %x", cols, r, got, want)
			}
			id, added := on.Insert(r)
			wid, wadded := built.Insert(sub)
			if id != wid || added != wadded {
				t.Fatalf("cols %v, row %v: Insert = (%d, %v), sub-row set (%d, %v)", cols, r, id, added, wid, wadded)
			}
			if added && !on.Rows[id].Identical(r) {
				t.Fatalf("cols %v: member %d = %v, want the full row %v", cols, id, on.Rows[id], r)
			}
		}
	}
}

func FuzzDecodeRow(f *testing.F) {
	for _, r := range codecRows() {
		f.Add(AppendRow(nil, r))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{1, 7})
	f.Fuzz(func(t *testing.T, b []byte) {
		row, n, err := DecodeRow(b)
		if err != nil {
			var ce *CodecError
			if !errors.As(err, &ce) || !errors.Is(err, ErrCodec) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		enc := AppendRow(nil, row)
		back, m, err := DecodeRow(enc)
		if err != nil || m != len(enc) || !back.Identical(row) {
			t.Fatalf("re-encoding %v does not round-trip: %v", row, err)
		}
		if HashRow(HashInit, row) != fnvOf(enc) {
			t.Fatalf("HashRow disagrees with the codec bytes of %v", row)
		}
	})
}
