package driver_test

import (
	"bytes"
	"context"
	"database/sql"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	neturl "net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	tdbdriver "tdb/driver"
	"tdb/internal/engine"
	"tdb/internal/experiments"
	"tdb/internal/interval"
	"tdb/internal/optimizer"
	"tdb/internal/quel"
	"tdb/internal/relation"
	"tdb/internal/server"
	"tdb/internal/value"
	"tdb/internal/workload"
)

// startServer runs a server on a real listener and returns its base URL.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	if cfg.DB == nil {
		cfg.DB = seededDB(t, 40)
	}
	s := server.New(cfg)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, "http://" + addr
}

func seededDB(t *testing.T, n int) *engine.DB {
	t.Helper()
	db := engine.NewDB()
	db.MustRegister(workload.Faculty(workload.FacultyConfig{N: n, Seed: 7}))
	if err := db.DeclareChronOrder(experiments.RankOrder(false)); err != nil {
		t.Fatal(err)
	}
	return db
}

func openDB(t *testing.T, url string) *sql.DB {
	t.Helper()
	db, err := sql.Open("tdb", url)
	if err != nil {
		t.Fatalf("sql.Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// embeddedRows runs quel through the embedded pipeline exactly the way
// the server does — parse, translate, bind, optimize with catalog ICs,
// execute — and renders rows the way the wire does.
func embeddedRows(t *testing.T, db *engine.DB, text string, params []value.Value) [][]any {
	t.Helper()
	prog, err := quel.Parse(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	qs, err := quel.Translate(prog, db)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	tree, err := quel.BindParams(&qs[0], params)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	res, err := optimizer.Optimize(tree, db, optimizer.Options{ICs: db.ChronOrders()})
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if res.Contradiction {
		return [][]any{}
	}
	out, _, err := engine.Run(db, res.Tree, engine.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rows := make([][]any, 0, len(out.Rows))
	for _, r := range out.Rows {
		vals := make([]any, len(r))
		for j, v := range r {
			if v.Kind() == value.KindString {
				vals[j] = v.AsString()
			} else {
				vals[j] = v.AsInt()
			}
		}
		rows = append(rows, vals)
	}
	return rows
}

// scanAll drains a result set into wire-shaped rows using the driver's
// reported scan types.
func scanAll(t *testing.T, rows *sql.Rows) [][]any {
	t.Helper()
	cts, err := rows.ColumnTypes()
	if err != nil {
		t.Fatalf("column types: %v", err)
	}
	out := [][]any{}
	for rows.Next() {
		ptrs := make([]any, len(cts))
		for i, ct := range cts {
			if ct.ScanType().Kind() == reflect.String {
				ptrs[i] = new(string)
			} else {
				ptrs[i] = new(int64)
			}
		}
		if err := rows.Scan(ptrs...); err != nil {
			t.Fatalf("scan: %v", err)
		}
		vals := make([]any, len(ptrs))
		for i, p := range ptrs {
			switch v := p.(type) {
			case *string:
				vals[i] = *v
			case *int64:
				vals[i] = *v
			}
		}
		out = append(out, vals)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("rows: %v", err)
	}
	return out
}

func asJSON(t *testing.T, rows [][]any) string {
	t.Helper()
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// proxyMode says what answerProxy does to query and execute answers.
type proxyMode int

const (
	passFrames  proxyMode = iota // pass answers through
	rowFrames                    // rewrite classes-layout frames as rows-layout frames
	stripAccept                  // drop the Accept header: the server answers JSON
)

// answerProxy fronts the server at url with a reverse proxy that records,
// for every query and execute answer, its content type and, for a frame,
// its layout tag as sent by the server. It returns the proxy URL and the
// set of "type layout" strings it saw.
func answerProxy(t *testing.T, url string, mode proxyMode) (string, map[string]bool) {
	t.Helper()
	target, err := neturl.Parse(url)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[string]bool{}
	rp := httputil.NewSingleHostReverseProxy(target)
	direct := rp.Director
	rp.Director = func(r *http.Request) {
		direct(r)
		if mode == stripAccept {
			r.Header.Del("Accept")
		}
	}
	rp.ModifyResponse = func(resp *http.Response) error {
		path := resp.Request.URL.Path
		if !strings.HasSuffix(path, "/query") && !strings.HasSuffix(path, "/execute") || resp.StatusCode != http.StatusOK {
			return nil
		}
		ct := resp.Header.Get("Content-Type")
		key := ct
		if ct == server.FrameContentType {
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			hl := int(binary.LittleEndian.Uint32(body))
			key = fmt.Sprintf("%s layout %d", ct, body[4+hl])
			if mode == rowFrames {
				if body, err = asRowFrame(body); err != nil {
					return err
				}
			}
			resp.Body = io.NopCloser(bytes.NewReader(body))
			resp.ContentLength = int64(len(body))
			resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
		}
		mu.Lock()
		seen[key] = true
		mu.Unlock()
		return nil
	}
	ps := httptest.NewServer(rp)
	t.Cleanup(ps.Close)
	return ps.URL, seen
}

// asRowFrame rewrites a classes-layout frame as the rows-layout frame of
// the same answer, decoding it with the relation row codec; any other
// frame is returned as it is.
func asRowFrame(b []byte) ([]byte, error) {
	hl := int(binary.LittleEndian.Uint32(b))
	var hdr struct {
		Columns []json.RawMessage `json:"columns"`
	}
	if err := json.Unmarshal(b[4:4+hl], &hdr); err != nil {
		return nil, err
	}
	if b[4+hl] != 1 {
		return b, nil
	}
	out := append([]byte{}, b[:4+hl]...)
	b = b[4+hl+1:]
	uvarint := func() int {
		x, w := binary.Uvarint(b)
		b = b[w:]
		return int(x)
	}
	cols := make([][2]int, len(hdr.Columns))
	for i := range cols {
		side := int(b[0])
		b = b[1:]
		cols[i] = [2]int{side, uvarint()}
	}
	var classes [2][]relation.Row
	for s := range classes {
		uvarint() // arity
		for n := uvarint(); n > 0; n-- {
			row, w, err := relation.DecodeRow(b)
			if err != nil {
				return nil, err
			}
			classes[s] = append(classes[s], row)
			b = b[w:]
		}
	}
	n := uvarint()
	out = append(out, 0)
	out = binary.AppendUvarint(out, uint64(n))
	for ; n > 0; n-- {
		pair := [2]int{uvarint(), uvarint()}
		row := make(relation.Row, len(cols))
		for i, c := range cols {
			row[i] = classes[c[0]][pair[c[0]]][c[1]]
		}
		out = relation.AppendRow(out, row)
	}
	return out, nil
}

// TestConformance runs the query set through sql.Open("tdb") three
// times: over the binary frame the driver asks for, whose join answers
// come in the classes layout; over the same frames rewritten to the rows
// layout by a proxy; and over JSON through a proxy that strips the
// Accept header. All three must give identical database/sql results,
// column types included, and all must match the embedded engine's rows.
func TestConformance(t *testing.T) {
	db := seededDB(t, 24)
	fac, err := db.Relation("Faculty")
	if err != nil {
		t.Fatal(err)
	}
	fac.Rows = append(fac.Rows,
		relation.Row{value.String_(""), value.String_("Full"), value.TimeVal(100), value.TimeVal(interval.Forever)},
		relation.Row{value.String_("Ünïcødé 名前"), value.String_("Assistant"), value.TimeVal(3), value.TimeVal(50)},
	)
	s, url := startServer(t, server.Config{DB: db})
	frameURL, frameSeen := answerProxy(t, url, passFrames)
	rowsURL, rowsSeen := answerProxy(t, url, rowFrames)
	jsonURL, jsonSeen := answerProxy(t, url, stripAccept)
	frontends := []struct {
		name string
		db   *sql.DB
	}{{"frame", openDB(t, frameURL)}, {"rows", openDB(t, rowsURL)}, {"json", openDB(t, jsonURL)}}
	cases := []struct {
		name   string
		quel   string
		args   []any
		params []value.Value
		// into names the relation the statement stores; it is read back
		// on the same connection.
		into string
	}{
		{name: "selection", quel: `
			range of f is Faculty
			retrieve (f.Name, f.Rank, f.ValidFrom, f.ValidTo)
			where f.Rank = "Full"`},
		{name: "forever-and-edge-strings", quel: `
			range of f is Faculty
			retrieve (f.Name, f.Rank, f.ValidFrom, f.ValidTo)`},
		{name: "overlap-self-join", quel: `
			range of a is Faculty
			range of b is Faculty
			retrieve (Name=a.Name, Peer=b.Name, From=a.ValidFrom)
			where a.Rank = "Assistant" and b.Rank = "Full" and (a overlap b)`},
		{name: "placeholders", quel: `
			range of f is Faculty
			retrieve (f.Name, f.ValidFrom)
			where f.Rank = $1 and f.ValidFrom < $2`,
			args:   []any{"Associate", 40},
			params: []value.Value{value.String_("Associate"), value.TimeVal(40)},
		},
		{name: "zero-rows", quel: `
			range of f is Faculty
			retrieve (f.Name, f.ValidTo)
			where f.Rank = "Emeritus"`},
		{name: "contradiction", quel: `
			range of a is Faculty
			range of b is Faculty
			retrieve (a.Name)
			where a.Name = b.Name and a.Rank = "Assistant" and b.Rank = "Full" and b.ValidTo < a.ValidFrom`},
		{name: "into", quel: `
			range of f is Faculty
			retrieve into Edge (f.Name, f.ValidTo)
			where f.Rank = "Full"`, into: "Edge"},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := map[string]string{}
			for _, fe := range frontends {
				conn, err := fe.db.Conn(ctx)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				rows, err := conn.QueryContext(ctx, tc.quel, tc.args...)
				if err != nil {
					t.Fatalf("%s query: %v", fe.name, err)
				}
				out := describe(t, rows)
				rows.Close()
				if tc.into != "" {
					back, err := conn.QueryContext(ctx, "range of e is "+tc.into+"\nretrieve (e.Name, e.ValidTo)")
					if err != nil {
						t.Fatalf("%s reading %s back: %v", fe.name, tc.into, err)
					}
					out += "\n" + describe(t, back)
					back.Close()
				}
				got[fe.name] = out
			}
			for _, other := range []string{"rows", "json"} {
				if got["frame"] != got[other] {
					t.Fatalf("frame and %s answers diverge\nframe: %.400s\n%5s: %.400s", other, got["frame"], other, got[other])
				}
			}
			rows, err := frontends[0].db.Query(tc.quel, tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			defer rows.Close()
			if got, want := asJSON(t, scanAll(t, rows)), asJSON(t, embeddedRows(t, s.DB(), tc.quel, tc.params)); got != want {
				t.Errorf("driver rows diverge from embedded engine\n got: %.300s\nwant: %.300s", got, want)
			}
		})
	}
	// The frame answers came in both layouts: the joins' as classes.
	classes, rows := server.FrameContentType+" layout 1", server.FrameContentType+" layout 0"
	if !frameSeen[classes] || !frameSeen[rows] || len(frameSeen) != 2 {
		t.Errorf("the driver got answers %v, want frames of both layouts", frameSeen)
	}
	if !rowsSeen[classes] || !rowsSeen[rows] || len(rowsSeen) != 2 {
		t.Errorf("the rewriting proxy saw answers %v, want frames of both layouts", rowsSeen)
	}
	if !jsonSeen["application/json"] || len(jsonSeen) != 1 {
		t.Errorf("the Accept-stripping proxy saw answers of types %v, want only JSON", jsonSeen)
	}
}

// describe renders a result set's column names and types and its rows.
func describe(t *testing.T, rows *sql.Rows) string {
	t.Helper()
	cts, err := rows.ColumnTypes()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, ct := range cts {
		fmt.Fprintf(&b, "%s:%s:%s ", ct.Name(), ct.DatabaseTypeName(), ct.ScanType())
	}
	return b.String() + asJSON(t, scanAll(t, rows))
}

// TestSuperstarIntoSessionScope runs the paper's running query through
// a pinned connection: the "into" result lands in that connection's
// session, matches the embedded engine, and is invisible elsewhere.
func TestSuperstarIntoSessionScope(t *testing.T) {
	s, url := startServer(t, server.Config{})
	db := openDB(t, url)
	ctx := context.Background()
	conn, err := db.Conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	res, err := conn.ExecContext(ctx, experiments.SuperstarQuel)
	if err != nil {
		t.Fatalf("superstar into: %v", err)
	}
	n, _ := res.RowsAffected()
	want := embeddedRows(t, s.DB(), experiments.SuperstarQuel, nil)
	if int(n) != len(want) {
		t.Fatalf("rows affected %d, embedded result has %d", n, len(want))
	}

	const stars = `
		range of s is Stars
		retrieve (s.Name, s.ValidFrom, s.ValidTo)`
	rows, err := conn.QueryContext(ctx, stars)
	if err != nil {
		t.Fatalf("query Stars on owning session: %v", err)
	}
	got := scanAll(t, rows)
	rows.Close()
	sortRows := func(rs [][]any) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = fmt.Sprint(r...)
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(sortRows(got), sortRows(want)) {
		t.Errorf("Stars contents diverge from embedded superstar result")
	}

	// A different connection is a different session: Stars is not there.
	other, err := db.Conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, err := other.QueryContext(ctx, stars); err == nil {
		t.Error("Stars leaked across sessions")
	} else {
		var te *tdbdriver.Error
		if !errors.As(err, &te) || te.Code != tdbdriver.CodeTranslate {
			t.Errorf("cross-session Stars error = %v, want %s", err, tdbdriver.CodeTranslate)
		}
	}
}

// TestPreparedRebind: one server-side prepare, executed under different
// bindings, each matching the embedded engine.
func TestPreparedRebind(t *testing.T) {
	s, url := startServer(t, server.Config{})
	db := openDB(t, url)
	const q = `
		range of f is Faculty
		retrieve (f.Name, f.ValidFrom)
		where f.Rank = $1`
	stmt, err := db.Prepare(q)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	defer stmt.Close()
	for _, rank := range []string{"Full", "Assistant", "Full"} {
		rows, err := stmt.Query(rank)
		if err != nil {
			t.Fatalf("execute %q: %v", rank, err)
		}
		got := asJSON(t, scanAll(t, rows))
		rows.Close()
		want := asJSON(t, embeddedRows(t, s.DB(), q, []value.Value{value.String_(rank)}))
		if got != want {
			t.Errorf("binding %q diverges from embedded engine", rank)
		}
	}
	// database/sql enforces the server-reported arity client-side.
	if _, err := stmt.Query(); err == nil || !strings.Contains(err.Error(), "expected 1") {
		t.Errorf("missing-parameter error = %v", err)
	}
}

// TestColumnTypes: interval typing travels through database/sql — the
// lifespan endpoints report TIME_START / TIME_END.
func TestColumnTypes(t *testing.T) {
	_, url := startServer(t, server.Config{})
	db := openDB(t, url)
	rows, err := db.Query(`
		range of f is Faculty
		retrieve (f.Name, f.Rank, f.ValidFrom, f.ValidTo)
		where f.Rank = "Full"`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cts, err := rows.ColumnTypes()
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := []string{"STRING", "STRING", "TIME_START", "TIME_END"}
	wantScan := []reflect.Kind{reflect.String, reflect.String, reflect.Int64, reflect.Int64}
	for i, ct := range cts {
		if ct.DatabaseTypeName() != wantTypes[i] {
			t.Errorf("column %s type %s, want %s", ct.Name(), ct.DatabaseTypeName(), wantTypes[i])
		}
		if ct.ScanType().Kind() != wantScan[i] {
			t.Errorf("column %s scans as %s, want %s", ct.Name(), ct.ScanType(), wantScan[i])
		}
	}
}

// TestForeverRoundTrip: the open-ended chronon (2^63-2) scans exactly.
func TestForeverRoundTrip(t *testing.T) {
	db := seededDB(t, 8)
	rel, err := db.Relation("Faculty")
	if err != nil {
		t.Fatal(err)
	}
	rel.Rows = append(rel.Rows, relation.Row{
		value.String_("zz-current"), value.String_("Full"),
		value.TimeVal(100), value.TimeVal(interval.Forever),
	})
	_, url := startServer(t, server.Config{DB: db})
	sdb := openDB(t, url)
	var name string
	var to int64
	err = sdb.QueryRow(`
		range of f is Faculty
		retrieve (f.Name, f.ValidTo)
		where f.ValidFrom = $1`, 100).Scan(&name, &to)
	if err != nil {
		t.Fatal(err)
	}
	if name != "zz-current" || to != int64(interval.Forever) {
		t.Errorf("got (%s, %d), want (zz-current, %d)", name, to, int64(interval.Forever))
	}
}

// TestTypedErrors: wire error codes come back as *tdbdriver.Error.
func TestTypedErrors(t *testing.T) {
	_, url := startServer(t, server.Config{
		Tenants: []server.TenantConfig{{Name: "alpha"}},
	})

	t.Run("parse", func(t *testing.T) {
		db := openDB(t, url+"?tenant=alpha")
		_, err := db.Query("retrieve retrieve retrieve")
		var te *tdbdriver.Error
		if !errors.As(err, &te) || te.Code != tdbdriver.CodeParse {
			t.Errorf("err = %v, want code %s", err, tdbdriver.CodeParse)
		}
	})
	t.Run("unknown-tenant", func(t *testing.T) {
		db := openDB(t, url+"?tenant=beta")
		err := db.Ping()
		var te *tdbdriver.Error
		if !errors.As(err, &te) || te.Code != tdbdriver.CodeUnknownTenant {
			t.Errorf("err = %v, want code %s", err, tdbdriver.CodeUnknownTenant)
		}
	})
	t.Run("unbindable-parameter", func(t *testing.T) {
		db := openDB(t, url+"?tenant=alpha")
		_, err := db.Query(`range of f is Faculty retrieve (f.Name) where f.ValidFrom < $1`, 3.14)
		if err == nil || !strings.Contains(err.Error(), "bind") {
			t.Errorf("float parameter error = %v", err)
		}
	})
	t.Run("no-transactions", func(t *testing.T) {
		db := openDB(t, url+"?tenant=alpha")
		if _, err := db.Begin(); !errors.Is(err, tdbdriver.ErrNoTransactions) {
			t.Errorf("Begin = %v, want ErrNoTransactions", err)
		}
	})
}

// TestCodesMirrorServer pins the driver's error-code vocabulary to the
// server's: the two packages share no Go types, only the protocol.
func TestCodesMirrorServer(t *testing.T) {
	pairs := [][2]string{
		{tdbdriver.CodeBadRequest, server.CodeBadRequest},
		{tdbdriver.CodeParse, server.CodeParse},
		{tdbdriver.CodeTranslate, server.CodeTranslate},
		{tdbdriver.CodeBind, server.CodeBind},
		{tdbdriver.CodePlan, server.CodePlan},
		{tdbdriver.CodeExec, server.CodeExec},
		{tdbdriver.CodeCanceled, server.CodeCanceled},
		{tdbdriver.CodeUnknownSession, server.CodeUnknownSession},
		{tdbdriver.CodeUnknownStatement, server.CodeUnknownStatement},
		{tdbdriver.CodeUnknownTenant, server.CodeUnknownTenant},
		{tdbdriver.CodeUnknownRelation, server.CodeUnknownRelation},
		{tdbdriver.CodeQuotaConcurrency, server.CodeQuotaConcurrency},
		{tdbdriver.CodeQueueTimeout, server.CodeQueueTimeout},
		{tdbdriver.CodeDeclined, server.CodeDeclined},
		{tdbdriver.CodeBreakerOpen, server.CodeBreakerOpen},
		{tdbdriver.CodeDraining, server.CodeDraining},
		{tdbdriver.CodeLateTuple, server.CodeLateTuple},
		{tdbdriver.CodeSessionExpired, server.CodeSessionExpired},
		{tdbdriver.CodeResumeHorizon, server.CodeResumeHorizon},
		{tdbdriver.CodeUnknownResume, server.CodeUnknownResume},
	}
	for _, p := range pairs {
		if p[0] != p[1] {
			t.Errorf("driver code %q != server code %q", p[0], p[1])
		}
	}
}

// TestProtocolVersionMismatch: a server answering another protocol
// version is refused at Connect, not misparsed later.
func TestProtocolVersionMismatch(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"protocol": "v0", "session": "s1"})
	}))
	defer fake.Close()
	db := openDB(t, fake.URL)
	if err := db.Ping(); err == nil || !strings.Contains(err.Error(), "protocol") {
		t.Errorf("version mismatch error = %v", err)
	}
}

// TestCancellationPropagates: canceling the context aborts the client
// call AND interrupts the query server-side — observed through the
// tenant error counter on /metrics — leaving the server healthy.
func TestCancellationPropagates(t *testing.T) {
	// Two-sided projection defeats the semijoin recognition, so the
	// pairwise join genuinely runs long enough to cancel: at n=1200 the
	// engine alone takes 30-60 ms (2 vCPU), past the 20 ms deadline.
	db := engine.NewDB()
	db.MustRegister(workload.Faculty(workload.FacultyConfig{N: 1200, Seed: 7}))
	_, url := startServer(t, server.Config{DB: db})
	sdb := openDB(t, url)
	// Open the connection, and with it the server session, before the
	// deadline starts: the deadline is for the query.
	if err := sdb.Ping(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := sdb.QueryContext(ctx, `
		range of a is Faculty
		range of b is Faculty
		retrieve (NameA=a.Name, NameB=b.Name)
		where a.Name != b.Name and a.Rank = "Full" and b.Rank = "Full"`)
	if err == nil {
		t.Fatal("query outlived its deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}

	// The server registered the interrupt: the tenant error counter
	// moves once the aborted handler unwinds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := scrapeCounter(t, url, "tdb_server_tenant_default_errors_total"); n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never recorded the canceled query")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var count int64
	if err := sdb.QueryRow(`range of f is Faculty retrieve (f.ValidFrom) where f.Name = $1`,
		"prof0000").Scan(&count); err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
}

// scrapeCounter reads one counter from the Prometheus endpoint.
func scrapeCounter(t *testing.T, base, name string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v int64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%d", &v); err == nil {
				return v
			}
		}
	}
	return 0
}
