package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"tdb/internal/constraints"
	"tdb/internal/relation"
	"tdb/internal/workload"
)

// rawQuery posts one query, naming accept in the Accept header when it is
// non-empty, and returns the answer's content type and body.
func rawQuery(t *testing.T, base string, req QueryRequest, accept string) (string, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest("POST", base+"/"+Protocol+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		hr.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, %v: %s", resp.StatusCode, err, b)
	}
	return resp.Header.Get("Content-Type"), b
}

// parseFrame splits a binary result frame with the relation row codec,
// assembling a classes-layout answer's rows from its class tables, and
// returns the header, the layout tag and the rows.
func parseFrame(t *testing.T, b []byte) (ResultHeader, byte, []relation.Row) {
	t.Helper()
	var hdr ResultHeader
	hl := int(binary.LittleEndian.Uint32(b))
	if err := json.Unmarshal(b[4:4+hl], &hdr); err != nil {
		t.Fatalf("frame header: %v", err)
	}
	b = b[4+hl:]
	layout := b[0]
	b = b[1:]
	uvarint := func() int {
		x, w := binary.Uvarint(b)
		if w <= 0 {
			t.Fatal("bad uvarint")
		}
		b = b[w:]
		return int(x)
	}
	decodeRows := func(count int) []relation.Row {
		rows := make([]relation.Row, 0, count)
		for i := 0; i < count; i++ {
			row, n, err := relation.DecodeRow(b)
			if err != nil {
				t.Fatalf("frame row %d: %v", i, err)
			}
			rows = append(rows, row)
			b = b[n:]
		}
		return rows
	}
	var rows []relation.Row
	switch layout {
	case layoutRows:
		rows = decodeRows(uvarint())
	case layoutClasses:
		type place struct{ side, cell int }
		cols := make([]place, len(hdr.Columns))
		for i := range cols {
			cols[i].side = int(b[0])
			b = b[1:]
			cols[i].cell = uvarint()
		}
		var classes [2][]relation.Row
		for s := range classes {
			arity := uvarint()
			classes[s] = decodeRows(uvarint())
			for _, c := range classes[s] {
				if len(c) != arity {
					t.Fatalf("side %d class of %d cells, arity %d", s, len(c), arity)
				}
			}
		}
		for n := uvarint(); n > 0; n-- {
			pair := [2]int{uvarint(), uvarint()}
			row := make(relation.Row, len(cols))
			for i, c := range cols {
				row[i] = classes[c.side][pair[c.side]][c.cell]
			}
			rows = append(rows, row)
		}
	default:
		t.Fatalf("layout tag %d", layout)
	}
	if len(b) != 0 {
		t.Fatalf("%d bytes after the frame's rows", len(b))
	}
	return hdr, layout, rows
}

// Every answer is sent as JSON by default and as the binary frame on
// request, and the two carry the same header fields and rows.
func TestResultFrameMatchesJSON(t *testing.T) {
	db := testDB(t, 40)
	if err := db.DeclareChronOrder(constraints.ChronOrder{
		Relation: "Faculty", KeyCol: "Name", ValCol: "Rank", Order: workload.Ranks,
	}); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{DB: db})
	sid := openSession(t, ts.URL, "")
	cases := map[string]string{
		"rows": facultyQuery,
		"join": `range of a is Faculty
range of b is Faculty
retrieve (a.Name, Peer=b.Name, b.Rank, From=a.ValidFrom) where a.Rank = "Assistant" and b.Rank = "Full" and (a overlap b)`,
		"join-into": `range of a is Faculty
range of b is Faculty
retrieve into Pairs (a.Name, Peer=b.Name) where a.Rank = "Assistant" and b.Rank = "Full" and (a overlap b)`,
		"zero-rows": "range of f is Faculty\nretrieve (f.Name) where f.Rank = \"Emeritus\"",
		"into":      "range of f is Faculty\nretrieve into Snap (f.Name, f.ValidTo) where f.Rank = \"Full\"",
		"contradiction": `range of a is Faculty
range of b is Faculty
retrieve (a.Name) where a.Name = b.Name and a.Rank = "Assistant" and b.Rank = "Full" and b.ValidTo < a.ValidFrom`,
	}
	for name, q := range cases {
		t.Run(name, func(t *testing.T) {
			req := QueryRequest{Session: sid, Quel: q}
			ct, jb := rawQuery(t, ts.URL, req, "")
			if ct != "application/json" {
				t.Fatalf("default answer is %q, want JSON", ct)
			}
			var js QueryResponse
			dec := json.NewDecoder(bytes.NewReader(jb))
			dec.UseNumber()
			if err := dec.Decode(&js); err != nil {
				t.Fatal(err)
			}
			ct, fb := rawQuery(t, ts.URL, req, "application/json, "+FrameContentType)
			if ct != FrameContentType {
				t.Fatalf("answer to an Accept naming the frame is %q", ct)
			}
			hdr, layout, rows := parseFrame(t, fb)
			if want := byte(layoutRows); strings.HasPrefix(name, "join") {
				if want = layoutClasses; len(rows) == 0 {
					t.Fatal("the join answered no rows")
				}
				if layout != want {
					t.Fatalf("layout %d, want %d", layout, want)
				}
			}
			js.ElapsedNS, hdr.ElapsedNS = 0, 0
			if !reflect.DeepEqual(js.ResultHeader, hdr) {
				t.Fatalf("headers differ\n json: %+v\nframe: %+v", js.ResultHeader, hdr)
			}
			if got, want := normalize(t, encodeRows(rows)), normalize(t, js.Rows); got != want {
				t.Fatalf("rows differ\nframe: %.300s\n json: %.300s", got, want)
			}
			if name == "contradiction" && !hdr.Contradiction {
				t.Fatal("the contradiction was not reported")
			}
			if name == "into" && hdr.Into != "Snap" {
				t.Fatalf("into = %q", hdr.Into)
			}
		})
	}
}

// The frame is sent only to a request whose Accept header names its
// versioned type as a whole media range with a nonzero quality; any other
// request, including one naming the unversioned rows-only frame of the
// first binary protocol, gets JSON.
func TestFrameNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := QueryRequest{Quel: facultyQuery}
	for accept, frame := range map[string]bool{
		FrameContentType:                              true,
		"APPLICATION/VND.TDB.FRAME.V2":                true,
		"application/json;q=0.9, " + FrameContentType: true,
		FrameContentType + " ; q=0.5":                 true,
		FrameContentType + ";q=1.0;level=1":           true,
		"":                                            false,
		"application/json":                            false,
		"*/*":                                         false,
		FrameContentType + ";q=0":                     false,
		FrameContentType + "; q=0.000, application/json":     false,
		FrameContentType + ";q=bogus":                        false,
		"application/vnd.tdb.frame":                          false,
		"application/vnd.tdb.frame.v2x":                      false,
		"application/vnd.tdb.frame.v2+json":                  false,
		"text/plain; note=application/vnd.tdb.frame.v2":      false,
		"x-" + FrameContentType + ", application/json;q=0.1": false,
	} {
		ct, b := rawQuery(t, ts.URL, req, accept)
		want := "application/json"
		if frame {
			want = FrameContentType
		}
		if ct != want {
			t.Errorf("Accept %q: answered %q, want %q", accept, ct, want)
		}
		if !frame && !json.Valid(b) {
			t.Errorf("Accept %q: JSON answer does not parse: %.80q", accept, b)
		}
	}
}
