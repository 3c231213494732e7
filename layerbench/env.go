package main

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"tdb/driver"
	"tdb/internal/engine"
	"tdb/internal/obs"
	"tdb/internal/server"
)

// env is one in-process server on loopback plus the driver handles the
// workload's clients use.
type env struct {
	srv    *server.Server
	reg    *obs.Registry
	tracer *obs.Tracer // engine plan-node spans; nil when untraced
	spans  *handlerLog // handler spans; nil when untraced
	hs     *http.Server
	served chan struct{} // closed when Serve returns
	addr   string
	conn   *driver.Connector
	db     *sql.DB
}

// handlerSpan is one protocol request as the server handler saw it.
type handlerSpan struct {
	path       string
	start, end time.Time
	respBytes  int64
}

// handlerLog collects handler spans; the benchmark's own http.Handler
// wraps srv.Handler() and appends one per request.
type handlerLog struct {
	mu    sync.Mutex
	spans []handlerSpan
}

func (l *handlerLog) add(s handlerSpan) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *handlerLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// since returns the spans recorded from index i on for the given path.
func (l *handlerLog) since(i int, path string) []handlerSpan {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []handlerSpan
	for _, s := range l.spans[i:] {
		if s.path == path {
			out = append(out, s)
		}
	}
	return out
}

// countingWriter counts response bytes and keeps streaming working.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// tracing wraps the server's handler with one span per request. Long-lived
// subscription streams are passed through untimed.
func tracing(h http.Handler, log *handlerLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/subscribe") {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now() // lint:allow determinism — wall-time measurement, reported as such
		h.ServeHTTP(cw, r)
		log.add(handlerSpan{path: r.URL.Path, start: start, end: time.Now(), respBytes: cw.n}) // lint:allow determinism — wall-time measurement, reported as such
	})
}

// startEnv serves db on a loopback port and opens a database/sql pool of
// at most conns connections through the public driver.
func startEnv(db *engine.DB, traced bool, conns int) (*env, error) {
	e := &env{reg: obs.NewRegistry()}
	cfg := server.Config{DB: db, Registry: e.reg}
	if traced {
		e.tracer = obs.NewTracer()
		cfg.Exec.Tracer = e.tracer
		e.spans = &handlerLog{}
	}
	e.srv = server.New(cfg)
	var h http.Handler = e.srv.Handler()
	if traced {
		h = tracing(h, e.spans)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.addr = ln.Addr().String()
	e.hs = &http.Server{Handler: h}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	dsn := "http://" + e.addr
	if e.conn, err = driver.NewConnector(dsn); err != nil {
		_ = e.close()
		return nil, err
	}
	e.db = sql.OpenDB(e.conn)
	e.db.SetMaxOpenConns(conns)
	e.db.SetMaxIdleConns(conns)
	if err := e.db.Ping(); err != nil {
		_ = e.close()
		return nil, fmt.Errorf("ping %s: %w", dsn, err)
	}
	return e, nil
}

// close shuts the pool, the HTTP server and the tdb server down and waits
// for the serve goroutine to exit.
func (e *env) close() error {
	var errs []error
	if e.db != nil {
		errs = append(errs, e.db.Close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// The tdb server's drain ends open subscription streams, which the
	// HTTP server's shutdown would otherwise wait on.
	errs = append(errs, e.srv.Shutdown(ctx))
	if e.hs != nil {
		errs = append(errs, e.hs.Shutdown(ctx))
		<-e.served
	}
	return errors.Join(errs...)
}

// rejected reads the server's admission rejections from the registry the
// benchmark passed in.
func (e *env) rejected() int64 {
	return e.reg.Counter("tdb_server_tenant_default_rejected_total", "").Value()
}
