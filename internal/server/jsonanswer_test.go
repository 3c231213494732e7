package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"tdb/internal/engine"
	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/value"
)

// awkwardStrings are the cells encoding/json escapes or rewrites: HTML
// characters, invalid UTF-8, the JavaScript line separators, every
// control character, quotes and backslashes.
func awkwardStrings() []string {
	ss := []string{
		"", "plain", "<script>&amp;</script>", "a>b", "\xff\xfe", "a\xc3", "\xed\xa0\x80",
		"\u2028x\u2029", "\"quoted\" \\back\\", "\x7f", "\u540d\u524d \u00dcn\u00ef", "\U0001f600", "\ufffd",
	}
	var ctl []byte
	for b := byte(0); b < 0x20; b++ {
		ctl = append(ctl, b, 'x')
	}
	return append(ss, string(ctl))
}

// awkwardDB holds one relation T whose names are awkwardStrings, over
// overlapping lifespans, plus one row at the far ends of the time line.
func awkwardDB(t *testing.T) *engine.DB {
	t.Helper()
	rel := relation.New("T", relation.MustSchema([]relation.Column{
		{Name: "Name", Kind: value.KindString},
		{Name: "Tag", Kind: value.KindString},
		{Name: "ValidFrom", Kind: value.KindTime},
		{Name: "ValidTo", Kind: value.KindTime},
	}, 2, 3))
	ss := awkwardStrings()
	for i, s := range ss {
		rel.MustInsert(relation.Row{value.String_(s), value.String_(ss[(i*5)%len(ss)]),
			value.TimeVal(interval.Time(i)), value.TimeVal(interval.Time(i + 4))})
	}
	rel.MustInsert(relation.Row{value.String_("edge"), value.String_("<>"),
		value.TimeVal(interval.Time(math.MinInt64 + 1)), value.TimeVal(interval.Forever)})
	db := engine.NewDB()
	db.MustRegister(rel)
	return db
}

// The JSON answer writer is byte-identical to encoding/json over
// encodeRows, for factored join answers, plain rows and no answer.
func TestAnswerJSONMatchesEncodingJSON(t *testing.T) {
	db := awkwardDB(t)
	hdr := ResultHeader{Notes: []string{"<&> \u2028"}, ElapsedNS: 42}
	for _, c := range []struct {
		name     string
		quel     string
		factored bool
	}{
		{"join", `range of a is T
range of b is T
retrieve (a.Name, Other=b.Name, b.Tag, a.ValidFrom, b.ValidTo) where (a overlap b)`, true},
		{"join-duplicates", `range of a is T
range of b is T
retrieve (a.Tag, Other=b.Tag) where (a overlap b)`, true},
		{"rows", `range of a is T
retrieve (a.Name, a.Tag, a.ValidFrom, a.ValidTo)`, false},
		{"zero-rows", `range of a is T
retrieve (a.Name) where a.Name = "absent"`, false},
	} {
		ans := embeddedAnswer(t, db, c.quel, nil)
		if (ans.Factored() != nil) != c.factored {
			t.Fatalf("%s: factored %v, want %v", c.name, ans.Factored() != nil, c.factored)
		}
		h := hdr
		h.Columns = encodeColumns(ans.Schema)
		got, err := encodeAnswerJSON(&h, ans)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(QueryResponse{ResultHeader: h, Rows: encodeRows(ans.Rows())})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: JSON answers differ\n got: %.400q\nwant: %.400q", c.name, got, want)
		}
	}
	got, err := encodeAnswerJSON(&hdr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(QueryResponse{ResultHeader: hdr, Rows: encodeRows(nil)}); !bytes.Equal(got, want) {
		t.Fatalf("no answer: %q, want %q", got, want)
	}
}

// appendStringJSON quotes any byte string exactly as encoding/json does.
func TestAppendStringJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ss := awkwardStrings()
	alphabet := []string{"a", "<", "&", "\"", "\\", "\x00", "\x1f", "\x7f", "\xff", "\xc3", "\u00e9", "\u2028", "\u2029", "\u540d", "\U0001f600"}
	for i := 0; i < 2000; i++ {
		var b []byte
		for n := rng.Intn(12); n > 0; n-- {
			if rng.Intn(4) == 0 {
				b = append(b, byte(rng.Intn(256)))
			} else {
				b = append(b, alphabet[rng.Intn(len(alphabet))]...)
			}
		}
		ss = append(ss, string(b))
	}
	for _, s := range ss {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendStringJSON(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("%q: got %s, want %s", s, got, want)
		}
	}
}
