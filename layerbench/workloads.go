package main

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tdb/driver"
	"tdb/internal/engine"
	"tdb/internal/live"
)

// bench is one set-up workload: its server, the expected answers, and the
// inputs still to be sent.
type bench struct {
	name    string
	seed    int64
	seconds float64
	e       *env
	rot     []query           // read rotation (point, scan, mixed)
	expect  map[string]answer // embedded reference answers by request key
	stmt    *sql.Stmt         // the prepared E26 selection (point)
	batches []batch           // append stream (mixed)
	wire    [][][]any         // batches rendered as driver cells
	stream  *ingestStream     // append stream (ingest)
}

func requestKey(q query) string { return fmt.Sprint(q.name, q.params) }

// clientsOf is each workload's closed-loop client count; no workload uses
// more than two client goroutines.
func clientsOf(w string) int {
	if w == "point" {
		return 2
	}
	return 1
}

// setUp builds the workload's inputs from the seed, computes the embedded
// reference answers, and starts the server. seconds sizes the mixed
// append stream so it cannot run dry within the run.
func setUp(w string, seed int64, seconds float64, traced bool) (*bench, error) {
	db, err := catalogFor(w, seed)
	if err != nil {
		return nil, err
	}
	b := &bench{name: w, seed: seed, seconds: seconds, expect: map[string]answer{}}
	switch w {
	case "point":
		b.rot = pointRotation()
	case "scan":
		b.rot = joinRotation(containJoin, overlapJoin)
	case "mixed":
		b.rot = joinRotation(overlapJoin)
		b.batches = mixedStream(int(seconds*1000/mixedPeriodMS)+50, seed)
	case "ingest":
		b.stream = newIngestStream(seed)
	}
	for _, q := range b.rot {
		a, err := expectedAnswer(q, db)
		if err != nil {
			return nil, err
		}
		b.expect[requestKey(q)] = a
	}
	for _, bt := range b.batches {
		b.wire = append(b.wire, wireRows(bt.rows))
	}
	if b.e, err = startEnv(db, traced, clientsOf(w)); err != nil {
		return nil, err
	}
	if w == "point" {
		if b.stmt, err = b.e.db.Prepare(e26Select); err != nil {
			_ = b.e.close()
			return nil, fmt.Errorf("prepare: %w", err)
		}
	}
	return b, nil
}

func (b *bench) close() error {
	if b.stmt != nil {
		_ = b.stmt.Close() // the session close below releases it server-side anyway
	}
	return b.e.close()
}

// outcome is what one timed request produced.
type outcome struct {
	lat  time.Duration
	rows [][]any
	err  error
}

// do sends one read request through database/sql and drains its rows. The
// timed interval ends when the last row is scanned.
func (b *bench) do(ctx context.Context, q query) outcome {
	start := time.Now() // lint:allow determinism — wall-time measurement, reported as such
	var rs *sql.Rows
	var err error
	if q.prepared {
		rs, err = b.stmt.QueryContext(ctx, q.params...)
	} else {
		rs, err = b.e.db.QueryContext(ctx, q.text, q.params...)
	}
	if err != nil {
		return outcome{lat: time.Since(start), err: err}
	}
	defer rs.Close()
	cols, err := rs.Columns()
	if err != nil {
		return outcome{lat: time.Since(start), err: err}
	}
	var rows [][]any
	for rs.Next() {
		cells := make([]any, len(cols))
		ptrs := make([]any, len(cols))
		for i := range cells {
			ptrs[i] = &cells[i]
		}
		if err := rs.Scan(ptrs...); err != nil {
			return outcome{lat: time.Since(start), err: err}
		}
		rows = append(rows, cells)
	}
	err = rs.Err()
	return outcome{lat: time.Since(start), rows: rows, err: err}
}

// verify checks a read's answer against the embedded reference.
func (b *bench) verify(q query, o outcome) error {
	if o.err != nil {
		return fmt.Errorf("%s: %w", q.name, o.err)
	}
	want := b.expect[requestKey(q)]
	if got := fingerprint(o.rows); got != want {
		return fmt.Errorf("%s: got %d rows (hash %x), want %d rows (hash %x)",
			q.name, got.rows, got.hash, want.rows, want.hash)
	}
	return nil
}

// tally accumulates a run's operations.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
}

func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// readLoad is what a closed loop of read clients measured.
type readLoad struct {
	lats   []float64            // per-request latency, ms
	byReq  map[string][]float64 // the same, by request of the rotation
	rows   int64                // result rows delivered
	perSec float64              // requests per second of client time spent waiting on the system
	busyS  float64              // client seconds spent in requests
	check  time.Duration        // CPU time the clients spent checking answers
}

// readLoop runs clients closed-loop clients over the rotation until the
// deadline. Client c starts at rotation position c. Answers are checked
// outside the timed interval; the time spent checking is excluded from
// the client's wall time when the request rate is computed, and its CPU
// time is returned so the caller can take it out of the process's.
func (b *bench) readLoop(ctx context.Context, clients int, deadline time.Time, t *tally) readLoad {
	var mu sync.Mutex
	var out readLoad
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lats []float64
			byReq := map[string][]float64{}
			var rows int64
			var busy, check, checkCPU time.Duration
			cstart := time.Now()                           // lint:allow determinism — wall-time measurement, reported as such
			for k := c; time.Now().Before(deadline); k++ { // lint:allow determinism — run length is wall time by definition
				q := b.rot[k%len(b.rot)]
				o := b.do(ctx, q)
				cs := time.Now() // lint:allow determinism — wall-time measurement, reported as such
				var err error
				checkCPU += ownCPU(func() { err = b.verify(q, o) })
				check += time.Since(cs)
				t.record(err)
				if err == nil {
					lats = append(lats, ms(o.lat))
					byReq[requestKey(q)] = append(byReq[requestKey(q)], ms(o.lat))
					rows += int64(len(o.rows))
					busy += o.lat
				}
			}
			wall := time.Since(cstart) - check
			mu.Lock()
			defer mu.Unlock()
			out.lats = append(out.lats, lats...)
			if out.byReq == nil {
				out.byReq = map[string][]float64{}
			}
			for k, v := range byReq {
				out.byReq[k] = append(out.byReq[k], v...)
			}
			out.rows += rows
			out.busyS += busy.Seconds()
			out.check += checkCPU
			if wall > 0 {
				out.perSec += float64(len(lats)) / wall.Seconds()
			}
		}(c)
	}
	wg.Wait()
	return out
}

// rotationP50 is the median over the rotation's requests of each
// request's own median latency, in ms. The rotation mixes requests whose
// latencies differ by tens of percent, so the plain median of all samples
// jumps between them with small changes in the mix; each request's median
// is steady, and so is the middle of those.
func (l readLoad) rotationP50() float64 {
	var meds []float64
	for _, v := range l.byReq {
		meds = append(meds, median(v))
	}
	return median(meds)
}

// warm runs every request of the rotation once per client, so connections,
// prepared statements and plan caches exist before timing starts.
func (b *bench) warm(ctx context.Context) error {
	for c := 0; c < clientsOf(b.name); c++ {
		for _, q := range b.rot {
			if err := b.verify(q, b.do(ctx, q)); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// metricLine is one named, united figure of a run's report.
type metricLine struct {
	name  string
	value float64
	unit  string
}

// runResult is a whole run: the operation counts and every named figure.
type runResult struct {
	attempted int
	failed    int
	firstErr  error
	lines     []metricLine
	notes     []string // flags printed in the report header
}

func (r *runResult) add(name string, v float64, unit string) {
	r.lines = append(r.lines, metricLine{name, v, unit})
}

func (r *runResult) value(name string) (float64, bool) {
	for _, l := range r.lines {
		if l.name == name {
			return l.value, true
		}
	}
	return 0, false
}

// runReads runs point and scan: closed-loop reads.
func (b *bench) runReads(ctx context.Context, dur time.Duration) (*runResult, error) {
	if err := b.warm(ctx); err != nil {
		return nil, err
	}
	var t tally
	var load readLoad
	var cpu time.Duration
	peak := peakHeap(func() {
		c0 := cpuTime()
		load = b.readLoop(ctx, clientsOf(b.name), time.Now().Add(dur), &t) // lint:allow determinism — run length is wall time by definition
		cpu = cpuTime() - c0 - load.check
	})
	r := &runResult{attempted: t.attempted, failed: t.failed, firstErr: t.firstErr}
	n := float64(len(load.lats))
	lats := load.lats
	r.add("query_p50_ms", percentile(lats, 0.50), "ms")
	r.add("query_rotation_p50_ms", load.rotationP50(), "ms")
	switch b.name {
	case "point":
		r.add("query_p90_ms", percentile(lats, 0.90), "ms")
		r.add("query_p99_ms", percentile(lats, 0.99), "ms")
		r.add("queries_per_s", load.perSec, "1/s")
	case "scan":
		r.add("query_p90_ms", percentile(lats, 0.90), "ms")
		r.add("rows_per_s", float64(load.rows)/load.busyS, "1/s")
	}
	r.add("queries", n, "count")
	r.add("cpu_ms_per_query", ms(cpu)/n, "ms")
	r.add("peak_heap_mb", peak, "MB")
	return r, nil
}

// ingestEpochBatches bounds how much one ingest server receives: the
// closed loop appends tens of thousands of rows a second, so the run is
// split into epochs of this many batches (about 100k rows), each against
// a fresh server and stream. A fixed epoch size keeps memory bounded and
// the heap figure independent of how fast a run happens to append.
const ingestEpochBatches = 1536

// ingestLoad accumulates the ingest figures over epochs.
type ingestLoad struct {
	rows       int
	busy       time.Duration // producer time excluding batch generation
	cpu        time.Duration // process CPU time while the producer appended
	appendLats []float64
	lags       []float64
	deltas     int
}

// runIngest: one producer appends the E23 streams closed-loop while one
// subscriber drains the overlap-join standing query.
func (b *bench) runIngest(ctx context.Context, dur time.Duration) (*runResult, error) {
	var t tally
	var load ingestLoad
	var err error
	peak := peakHeap(func() {
		for epoch := 0; err == nil && load.busy < dur; epoch++ {
			if epoch > 0 {
				if err = b.e.close(); err != nil {
					return
				}
				var db *engine.DB
				if db, err = catalogFor("ingest", b.seed); err != nil {
					return
				}
				if b.e, err = startEnv(db, false, 1); err != nil {
					return
				}
				b.stream = newIngestStream(b.seed + int64(epoch)*101)
			}
			err = b.ingestEpoch(ctx, dur-load.busy, &t, &load)
		}
	})
	if err != nil {
		return nil, err
	}
	r := &runResult{attempted: t.attempted, failed: t.failed, firstErr: t.firstErr}
	r.add("ingest_rows_per_s", float64(load.rows)/load.busy.Seconds(), "1/s")
	r.add("append_p50_ms", percentile(load.appendLats, 0.50), "ms")
	r.add("append_p99_ms", percentile(load.appendLats, 0.99), "ms")
	r.add("delta_lag_p50_ms", percentile(load.lags, 0.50), "ms")
	r.add("delta_lag_p90_ms", percentile(load.lags, 0.90), "ms")
	r.add("delta_lag_p99_ms", percentile(load.lags, 0.99), "ms")
	r.add("appends", float64(len(load.appendLats)), "count")
	r.add("cpu_ms_per_batch", ms(load.cpu)/float64(len(load.appendLats)), "ms")
	r.add("deltas", float64(load.deltas), "count")
	r.add("deltas_timed", float64(len(load.lags)), "count")
	r.add("peak_heap_mb", peak, "MB")
	return r, nil
}

// ingestEpoch runs one epoch against b.e: subscribe, append
// ingestEpochBatches batches or until dur has passed, flush, drain, and
// check the deltas. Batch generation and the acknowledgement bookkeeping
// run inside the CPU window, so their CPU time is measured on their own
// thread and taken out; the subscriber
// only keeps each delta batch and its receipt time, and the deltas are
// hashed after the window.
func (b *bench) ingestEpoch(ctx context.Context, dur time.Duration, t *tally, load *ingestLoad) error {
	type received struct {
		rows [][]any
		at   time.Time
	}
	var (
		got     atomic.Int64
		batches []received // written by the subscriber only; read after withSubscription returns
		acked   = map[string]time.Time{}
		appsEnd time.Time
		recv    answer
	)
	onDeltas := func(d driver.Deltas) {
		batches = append(batches, received{d.Rows, time.Now()}) // lint:allow determinism — wall-time measurement, reported as such
		got.Add(int64(len(d.Rows)))
	}
	appendAll := func(name string) error {
		var gen time.Duration // batch generation, outside the timed appends
		var own time.Duration // CPU time of the benchmark's own bookkeeping
		cpu0 := cpuTime()
		start := time.Now() // lint:allow determinism — wall-time measurement, reported as such
		deadline := start.Add(dur)
		for n := 0; n < ingestEpochBatches && time.Now().Before(deadline); n++ { // lint:allow determinism — run length is wall time by definition
			var bt batch
			var cells [][]any
			g := time.Now() // lint:allow determinism — wall-time measurement, reported as such
			own += ownCPU(func() {
				bt = b.stream.next()
				cells = wireRows(bt.rows)
			})
			s := time.Now() // lint:allow determinism — wall-time measurement, reported as such
			gen += s.Sub(g)
			_, err := b.e.conn.Append(ctx, bt.rel, cells, ingestSlack, false)
			ack := time.Now() // lint:allow determinism — wall-time measurement, reported as such
			t.record(err)
			if err != nil {
				continue
			}
			load.appendLats = append(load.appendLats, ms(ack.Sub(s)))
			load.rows += len(bt.rows)
			own += ownCPU(func() {
				for _, row := range bt.rows {
					acked[row[0].AsString()] = ack
				}
			})
		}
		appsEnd = time.Now() // lint:allow determinism — wall-time measurement, reported as such
		load.busy += appsEnd.Sub(start) - gen
		load.cpu += cpuTime() - cpu0 - own

		// Flush, and let the stream deliver everything the standing
		// query has emitted.
		_, err := b.e.conn.Append(ctx, "X", nil, ingestSlack, true)
		t.record(err)
		return b.drain(name, &got)
	}
	// Once the stream has stopped, check the standing query and collect
	// the operator's end-of-stream tail.
	finish := func(name string) (err error) {
		recv, err = b.finishStanding(name)
		return err
	}
	if _, err := withSubscription(ctx, b.e, onDeltas, appendAll, finish); err != nil {
		t.record(err)
	}

	// Compare everything received with a batch execution.
	for _, d := range batches {
		for _, row := range d.rows {
			recv.rows++
			recv.hash += rowHash(row)
			// Deltas released by the final flush waited for it, not for
			// the live path; they are checked but not timed.
			if !d.at.After(appsEnd) {
				xs, _ := row[0].(string)
				ys, _ := row[1].(string)
				later := acked[xs]
				if a := acked[ys]; a.After(later) {
					later = a
				}
				load.lags = append(load.lags, ms(d.at.Sub(later)))
			}
		}
	}
	want, err := b.batchReference()
	if err != nil {
		return err
	}
	if recv != want {
		t.record(fmt.Errorf("subscription deltas: got %d rows (hash %x), batch execution has %d (hash %x)",
			recv.rows, recv.hash, want.rows, want.hash))
	} else {
		t.record(nil)
	}
	load.deltas += recv.rows
	return nil
}

// withSubscription opens the overlap-join subscription on e, hands every
// delta batch to onDeltas (which may be nil) on a second goroutine, runs
// fn with the standing query's name, then cancels the stream and, while
// the standing query is still registered, runs stopped (which may be
// nil). It reports the stream's auto-resumes, and the first error of fn,
// the stream and stopped.
func withSubscription(ctx context.Context, e *env, onDeltas func(driver.Deltas),
	fn, stopped func(name string) error) (resumes int, err error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sub, err := e.conn.Subscribe(ctx, overlapWatch, subscribePollMS)
	if err != nil {
		return 0, fmt.Errorf("subscribe: %w", err)
	}
	done := make(chan error, 1)
	go func() {
		for {
			d, err := sub.Next()
			if err != nil {
				if ctx.Err() != nil {
					err = nil
				}
				done <- err
				return
			}
			if onDeltas != nil {
				onDeltas(d)
			}
		}
	}()
	name := sub.Meta().Name
	err = fn(name)
	cancel()
	if serr := <-done; err == nil && serr != nil {
		err = fmt.Errorf("subscription: %w", serr)
	}
	if stopped != nil {
		if serr := stopped(name); err == nil {
			err = serr
		}
	}
	resumes = sub.Stats().Resumes
	_ = sub.Close() // the stream is already cancelled
	return resumes, err
}

// drain waits until the subscriber has received every delta the standing
// query has emitted and the count has held for several poll periods.
func (b *bench) drain(name string, got *atomic.Int64) error {
	bound := time.Now().Add(30 * time.Second) // lint:allow determinism — a bound on waiting, not a measurement
	stable := 0
	for stable < 5 {
		if time.Now().After(bound) { // lint:allow determinism — a bound on waiting, not a measurement
			return fmt.Errorf("subscription did not drain: %d deltas received", got.Load())
		}
		time.Sleep(subscribePollMS * time.Millisecond)
		var emitted int
		err := b.e.srv.WithLive(func(m *live.Manager) error {
			q := m.Query(name)
			if q == nil {
				return fmt.Errorf("standing query %q not registered", name)
			}
			emitted = len(q.Deltas())
			return nil
		})
		if err != nil {
			return err
		}
		if got.Load() == int64(emitted) {
			stable++
		} else {
			stable = 0
		}
	}
	return nil
}

// finishStanding checks the standing query with the live manager's own
// delta-contract check, then ends it and returns the end-of-stream tail
// its operator held back.
func (b *bench) finishStanding(name string) (answer, error) {
	var tail answer
	err := b.e.srv.WithLive(func(m *live.Manager) error {
		q := m.Query(name)
		if q == nil {
			return fmt.Errorf("standing query %q not registered", name)
		}
		fresh, err := q.Poll()
		if err != nil {
			return err
		}
		if len(fresh) > 0 {
			return fmt.Errorf("standing query %s emitted %d deltas after the stream drained", name, len(fresh))
		}
		if _, _, err := q.Verify(); err != nil {
			return err
		}
		rows, err := q.Finish()
		tail = engineFingerprint(rows)
		return err
	})
	return tail, err
}

// subscribePollMS is the subscription's poll cadence: short enough that
// delta lag measures the live path rather than the poll timer.
const subscribePollMS = 5

// batchReference executes the standing query's retrieve twin over the
// server's final relations.
func (b *bench) batchReference() (answer, error) {
	var a answer
	err := b.e.srv.WithLive(func(*live.Manager) error {
		db := b.e.srv.DB()
		res, err := plan(overlapWatchBatch, nil, db)
		if err != nil {
			return err
		}
		out, _, err := engine.Run(db, res.Tree, engine.Options{})
		if err != nil {
			return err
		}
		a = engineFingerprint(out.Rows)
		return nil
	})
	return a, err
}

// runMixed: an open-loop appender offers one batch every mixedPeriodMS into
// a relation no query reads, beside one closed-loop overlap-join querier.
// Append latency is timed from each batch's due time.
func (b *bench) runMixed(ctx context.Context, dur time.Duration) (*runResult, error) {
	if err := b.warm(ctx); err != nil {
		return nil, err
	}
	var t tally
	var load readLoad
	period := mixedPeriodMS * time.Millisecond
	var appendLats, late []float64
	due := int(dur / period)
	sent := 0
	var genErr error
	var cpu time.Duration
	peak := peakHeap(func() {
		cpu0 := cpuTime()
		// Deferred before wg.Wait below, so it runs after the querier ends.
		defer func() { cpu = cpuTime() - cpu0 - load.check }()
		start := time.Now() // lint:allow determinism — wall-time measurement, reported as such
		deadline := start.Add(dur)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			load = b.readLoop(ctx, 1, deadline, &t)
		}()
		defer wg.Wait()
		for k := 0; k < due; k++ {
			at := start.Add(time.Duration(k) * period)
			if now := time.Now(); now.Before(at) { // lint:allow determinism — the open loop's schedule is wall time
				time.Sleep(at.Sub(now))
			} else if now.After(deadline) {
				return
			}
			if k >= len(b.batches) {
				genErr = errors.New("mixed append stream ran dry")
				return
			}
			s := time.Now() // lint:allow determinism — wall-time measurement, reported as such
			_, err := b.e.conn.Append(ctx, b.batches[k].rel, b.wire[k], ingestSlack, false)
			t.record(err)
			if err == nil {
				appendLats = append(appendLats, ms(time.Since(at)))
				late = append(late, ms(s.Sub(at)))
			}
			sent++
		}
	})
	if genErr != nil {
		return nil, genErr
	}

	r := &runResult{attempted: t.attempted, failed: t.failed, firstErr: t.firstErr}
	if sent < due {
		r.notes = append(r.notes, fmt.Sprintf("offered rate not met: %d of %d due batches sent", sent, due))
	}
	r.add("query_p50_ms", percentile(load.lats, 0.50), "ms")
	r.add("query_rotation_p50_ms", load.rotationP50(), "ms")
	r.add("query_p90_ms", percentile(load.lats, 0.90), "ms")
	r.add("queries_per_s", load.perSec, "1/s")
	r.add("append_p50_ms", percentile(appendLats, 0.50), "ms")
	r.add("append_p90_ms", percentile(appendLats, 0.90), "ms")
	r.add("append_p99_ms", percentile(appendLats, 0.99), "ms")
	r.add("bench.generator_late_ms", percentile(late, 0.99), "ms")
	r.add("bench.offered_batches", float64(due), "count")
	r.add("bench.sent_batches", float64(sent), "count")
	r.add("queries", float64(len(load.lats)), "count")
	r.add("cpu_ms_per_query", ms(cpu)/float64(len(load.lats)), "ms")
	r.add("peak_heap_mb", peak, "MB")
	return r, nil
}
