package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
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

// parseFrame splits a binary result frame with the relation row codec.
func parseFrame(t *testing.T, b []byte) (ResultHeader, []relation.Row) {
	t.Helper()
	var hdr ResultHeader
	hl := int(binary.LittleEndian.Uint32(b))
	if err := json.Unmarshal(b[4:4+hl], &hdr); err != nil {
		t.Fatalf("frame header: %v", err)
	}
	b = b[4+hl:]
	count, w := binary.Uvarint(b)
	b = b[w:]
	rows := make([]relation.Row, 0, count)
	for i := uint64(0); i < count; i++ {
		row, n, err := relation.DecodeRow(b)
		if err != nil {
			t.Fatalf("frame row %d: %v", i, err)
		}
		rows = append(rows, row)
		b = b[n:]
	}
	if len(b) != 0 {
		t.Fatalf("%d bytes after the frame's rows", len(b))
	}
	return hdr, rows
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
		"rows":      facultyQuery,
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
			hdr, rows := parseFrame(t, fb)
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
