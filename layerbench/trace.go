package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"tdb/internal/algebra"
	"tdb/internal/engine"
	"tdb/internal/interval"
	"tdb/internal/live"
	"tdb/internal/obs"
	"tdb/internal/optimizer"
	"tdb/internal/relation"
	"tdb/internal/server"
)

// The traced run replays a workload's requests from a single client and
// splits each round trip into layers:
//
//	driver.self  = driver round trip − server handler span
//	server.self  = handler − (quel + optimizer + engine.Run)   for queries
//	             = handler − live append replay                 for appends
//
// The handler span comes from the benchmark's own wrapper around
// srv.Handler(); engine plan-node spans come from engine.Options.Tracer
// passed through server.Config.Exec; quel, optimizer and live are timed
// by calling them on the same inputs. A span's self time is its duration
// minus its children's.

// tracedShare is the part of the run spent traced; the rest measures the
// same replay untraced, for obs.trace_overhead_frac.
const tracedShare = 0.75

// maxTraced bounds the traced requests: the tracer keeps every span.
const maxTraced = 4000

// layerSums accumulates per-request layer figures of the traced phase.
type layerSums struct {
	rts, handlers, driverSelf, serverSelf, respKB []float64
	overheadRTs                                   []float64 // the requests the untraced reference also times
	quelUS, optUS, rewrites                       []float64
	runMS, projectMS, kernelMS, sortMS            []float64
	sortedRows, examinedPerResult                 []float64
	comparisons                                   []float64
	workspaceMax, stateHWM                        int64
	layerSum                                      []float64 // (Σ self times) / round trip
	appendHandler                                 time.Duration
	appendRows                                    int
	liveAppend, livePoll                          time.Duration
	liveRows, liveDeltas                          int
}

// traced marks where one replayed request's spans begin.
type traced struct {
	e       *env
	spanIdx int
	logIdx  int
}

// runTraced is the --trace 1 run: an untraced single-client replay for
// the reference round trip, then the traced replay that yields the
// per-layer metrics.
func (b *bench) runTraced(ctx context.Context, dur time.Duration) (*runResult, error) {
	if b.name == "ingest" {
		return b.traceIngest(ctx, dur)
	}
	if err := b.warm(ctx); err != nil {
		return nil, err
	}
	// Untraced reference: the same single-client replay on an untraced
	// server over a fresh copy of the catalog.
	untracedP50, err := b.untracedReplay(ctx, time.Duration(float64(dur)*(1-tracedShare)))
	if err != nil {
		return nil, err
	}

	var t tally
	var s layerSums
	lv, err := newLiveReplay(b.seed, "")
	if err != nil {
		return nil, err
	}
	defer lv.m.Close()
	sortInputs := map[string][]orderInput{}
	deadline := time.Now().Add(time.Duration(float64(dur) * tracedShare)) // lint:allow determinism — run length is wall time by definition
	mixedK, queryK := 0, 0
	for k := 0; k < maxTraced && time.Now().Before(deadline); k++ { // lint:allow determinism — run length is wall time by definition
		if b.name == "mixed" && k%6 != 0 && mixedK < len(b.batches) {
			// The mixed replay sends five appends per query, about the
			// ratio of the open-loop schedule to the query length.
			if err := b.traceAppend(ctx, b.batches[mixedK], lv, &t, &s); err != nil {
				return nil, err
			}
			mixedK++
			continue
		}
		q := b.rot[queryK%len(b.rot)]
		queryK++
		if err := b.traceQuery(ctx, q, sortInputs, &t, &s); err != nil {
			return nil, err
		}
	}
	r := &runResult{attempted: t.attempted, failed: t.failed, firstErr: t.firstErr}
	b.reportLayers(r, &s, untracedP50)
	r.add("driver.resumes", 0, "count") // no subscription: nothing can resume
	if err := b.reportAllocs(r); err != nil {
		return nil, err
	}
	b.reportLive(r, &s, lv)
	return r, nil
}

// traceIngest replays the ingest workload: one client appends while the
// subscription drains beside it. The engine figures describe the batch
// execution the deltas are checked against; quel and optimizer figures
// the subscribe statement's translation and planning.
func (b *bench) traceIngest(ctx context.Context, dur time.Duration) (*runResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var t tally
	var s layerSums

	// Untraced reference: one epoch of the untraced workload on a second,
	// untraced set-up.
	ub, err := setUp("ingest", b.seed, b.seconds, false)
	if err != nil {
		return nil, err
	}
	var ref ingestLoad
	err = ub.ingestEpoch(ctx, time.Duration(float64(dur)*(1-tracedShare)), &t, &ref)
	if cerr := ub.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	lv, err := newLiveReplay(b.seed, overlapWatch)
	if err != nil {
		return nil, err
	}
	defer lv.m.Close()
	resumes, err := withSubscription(ctx, b.e, nil, func(string) error {
		deadline := time.Now().Add(time.Duration(float64(dur) * tracedShare)) // lint:allow determinism — run length is wall time by definition
		for k := 0; k < maxTraced/2 && time.Now().Before(deadline); k++ {     // lint:allow determinism — run length is wall time by definition
			if err := b.traceAppend(ctx, b.stream.next(), lv, &t, &s); err != nil {
				return err
			}
		}
		_, err := b.e.conn.Append(ctx, "X", nil, ingestSlack, true)
		t.record(err)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	// The subscribe statement through quel and the optimizer, and the
	// checking batch execution through a traced engine.Run.
	sdb := b.e.srv.DB()
	var quelD, optD []float64
	for i := 0; i < 5; i++ {
		st := time.Now() // lint:allow determinism — wall-time measurement, reported as such
		tree, err := frontEnd(overlapWatch, nil, sdb)
		quelD = append(quelD, float64(time.Since(st))/1e3)
		if err != nil {
			return nil, err
		}
		st = time.Now() // lint:allow determinism — wall-time measurement, reported as such
		res, err := optimizer.Optimize(tree, sdb, optimizer.Options{})
		optD = append(optD, float64(time.Since(st))/1e3)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			s.rewrites = append(s.rewrites, float64(rewrites(res)))
		}
	}
	s.quelUS, s.optUS = []float64{median(quelD)}, []float64{median(optD)}
	err = b.e.srv.WithLive(func(*live.Manager) error {
		res, err := plan(overlapWatchBatch, nil, sdb)
		if err != nil {
			return err
		}
		tr := obs.NewTracer()
		if _, _, err := engine.Run(sdb, res.Tree, engine.Options{Tracer: tr}); err != nil {
			return err
		}
		s.addEngine(engineSpans(tr.Spans()))
		in, err := orderInputs(res.Tree, sdb, tr.Spans())
		if err != nil {
			return err
		}
		var reps []float64
		for i := 0; i < 5; i++ {
			reps = append(reps, ms(replayOrder(in)))
		}
		s.sortMS = append(s.sortMS, median(reps))
		return nil
	})
	if err != nil {
		return nil, err
	}

	r := &runResult{attempted: t.attempted, failed: t.failed, firstErr: t.firstErr}
	b.reportLayers(r, &s, median(ref.appendLats))
	r.add("driver.resumes", float64(resumes), "count")
	if err := b.reportAllocs(r); err != nil {
		return nil, err
	}
	b.reportLive(r, &s, lv)
	return r, nil
}

// untracedReplay times the single-client replay on a second, untraced
// set-up of the same workload and returns its median round trip in ms.
func (b *bench) untracedReplay(ctx context.Context, dur time.Duration) (float64, error) {
	ub, err := setUp(b.name, b.seed, b.seconds, false)
	if err != nil {
		return 0, err
	}
	defer func() { _ = ub.close() }() // a throwaway server; its shutdown cannot change the figures
	if err := ub.warm(ctx); err != nil {
		return 0, err
	}
	var lats []float64
	deadline := time.Now().Add(dur)                // lint:allow determinism — run length is wall time by definition
	for k := 0; time.Now().Before(deadline); k++ { // lint:allow determinism — run length is wall time by definition
		q := ub.rot[k%len(ub.rot)]
		o := ub.do(ctx, q)
		if err := ub.verify(q, o); err != nil {
			return 0, err
		}
		lats = append(lats, ms(o.lat))
	}
	return median(lats), nil
}

// begin marks where a request's spans start.
func (b *bench) begin() traced {
	return traced{e: b.e, spanIdx: len(b.e.tracer.Spans()), logIdx: b.e.spans.len()}
}

// handlerOf returns the handler span the request produced on path.
func (tr traced) handlerOf(path string) (handlerSpan, error) {
	hs := tr.e.spans.since(tr.logIdx, path)
	if len(hs) != 1 {
		return handlerSpan{}, fmt.Errorf("want one %s handler span, got %d", path, len(hs))
	}
	return hs[0], nil
}

// traceQuery sends one query and splits its round trip into layers.
// The inputs of the request's order-establishing steps are found once per
// request of the rotation and kept in sortInputs; the steps are replayed
// and timed for every request.
func (b *bench) traceQuery(ctx context.Context, q query, sortInputs map[string][]orderInput, t *tally, s *layerSums) error {
	tr := b.begin()
	o := b.do(ctx, q)
	err := b.verify(q, o)
	t.record(err)
	if err != nil {
		return nil
	}
	path := "/" + server.Protocol + "/query"
	if q.prepared {
		path = "/" + server.Protocol + "/execute"
	}
	h, err := tr.handlerOf(path)
	if err != nil {
		return err
	}
	spans := b.e.tracer.Spans()[tr.spanIdx:]

	// quel and optimizer: a prepared execution reuses the statement's
	// translation and its cached plan, so neither runs for it.
	var quelD, optD time.Duration
	db := b.e.srv.DB()
	var res *optimizer.Result
	if !q.prepared {
		st := time.Now() // lint:allow determinism — wall-time measurement, reported as such
		tree, err := frontEnd(q.text, q.params, db)
		quelD = time.Since(st)
		if err != nil {
			return err
		}
		st = time.Now() // lint:allow determinism — wall-time measurement, reported as such
		res, err = optimizer.Optimize(tree, db, optimizer.Options{ICs: db.ChronOrders()})
		optD = time.Since(st)
		if err != nil {
			return err
		}
		s.quelUS = append(s.quelUS, float64(quelD)/1e3)
		s.optUS = append(s.optUS, float64(optD)/1e3)
		s.rewrites = append(s.rewrites, float64(rewrites(res)))
	}

	ns := engineSpans(spans)
	key := requestKey(q)
	if _, ok := sortInputs[key]; !ok {
		if res == nil {
			if res, err = plan(q.text, q.params, db); err != nil {
				return err
			}
		}
		if sortInputs[key], err = orderInputs(res.Tree, db, spans); err != nil {
			return err
		}
	}
	s.sortMS = append(s.sortMS, ms(replayOrder(sortInputs[key])))
	s.addEngine(ns)

	rt := ms(o.lat)
	hd := ms(h.end.Sub(h.start))
	inner := float64(quelD+optD)/1e6 + ns.runMS
	srvSelf := max(0, hd-inner)
	s.rts = append(s.rts, rt)
	s.handlers = append(s.handlers, hd)
	s.driverSelf = append(s.driverSelf, rt-hd)
	s.serverSelf = append(s.serverSelf, srvSelf)
	s.respKB = append(s.respKB, float64(h.respBytes)/1024)
	s.layerSum = append(s.layerSum, (rt-hd+srvSelf+inner)/rt)
	s.overheadRTs = append(s.overheadRTs, rt)
	return nil
}

// traceAppend sends one append, replays it on the embedded live manager,
// and splits its round trip into layers.
func (b *bench) traceAppend(ctx context.Context, bt batch, lv *liveReplay, t *tally, s *layerSums) error {
	tr := b.begin()
	cells := wireRows(bt.rows)
	st := time.Now() // lint:allow determinism — wall-time measurement, reported as such
	_, err := b.e.conn.Append(ctx, bt.rel, cells, ingestSlack, false)
	rt := ms(time.Since(st))
	t.record(err)
	if err != nil {
		return nil
	}
	h, err := tr.handlerOf("/" + server.Protocol + "/append")
	if err != nil {
		return err
	}
	liveD, err := lv.append(bt)
	if err != nil {
		return err
	}
	hd := ms(h.end.Sub(h.start))
	srvSelf := max(0, hd-ms(liveD))
	s.rts = append(s.rts, rt)
	s.handlers = append(s.handlers, hd)
	s.driverSelf = append(s.driverSelf, rt-hd)
	s.serverSelf = append(s.serverSelf, srvSelf)
	s.respKB = append(s.respKB, float64(h.respBytes)/1024)
	s.layerSum = append(s.layerSum, (rt-hd+srvSelf+ms(liveD))/rt)
	if b.name == "ingest" {
		s.overheadRTs = append(s.overheadRTs, rt)
	}
	s.appendHandler += h.end.Sub(h.start)
	s.appendRows += len(bt.rows)
	s.liveAppend += liveD
	s.liveRows += len(bt.rows)
	if lv.q != nil {
		st := time.Now() // lint:allow determinism — wall-time measurement, reported as such
		rows, err := lv.q.Poll()
		s.livePoll += time.Since(st)
		if err != nil {
			return err
		}
		s.liveDeltas += len(rows)
	}
	return nil
}

// rewrites counts the optimizer's effective work on a query: conjuncts
// removed by the semantic pass plus passes that changed the tree.
func rewrites(res *optimizer.Result) int {
	n := len(res.Removed)
	for i := 1; i < len(res.Stages); i++ {
		if res.Stages[i].Tree != res.Stages[i-1].Tree {
			n++
		}
	}
	return n
}

// engineFigures are one request's plan-node span totals.
type engineFigures struct {
	runMS, projectMS, kernelMS float64
	sortedRows, examined, out  int64
	comparisons                int64
	workspaceMax, stateHWM     int64
}

// isStream reports whether a span is a temporal stream operator node: a
// sweep join or semijoin, a single-scan self semijoin, or a before
// operator — not a nested loop.
func isStream(sp *obs.Span) bool {
	a := sp.Node.Algorithm
	return strings.HasPrefix(a, "stream ") || strings.HasPrefix(a, "single-scan ") || strings.HasPrefix(a, "before-")
}

// shardWorker marks the spans of a parallel node's workers. They overlap
// in time, so they are part of their node's own time, not children to
// subtract from it.
const shardWorker = "shard worker"

// engineSpans folds one request's plan-node spans: the query root's
// duration is engine.Run, node self times are span minus children.
func engineSpans(spans []*obs.Span) engineFigures {
	var f engineFigures
	child := map[int64]int64{}
	for _, sp := range spans {
		if sp.ParentID != 0 && sp.Node.Algorithm != shardWorker {
			child[sp.ParentID] += sp.EndNS - sp.StartNS
		}
	}
	for _, sp := range spans {
		d := sp.EndNS - sp.StartNS
		self := float64(d-child[sp.ID]) / 1e6
		p := &sp.Probe
		switch {
		case sp.ParentID == 0:
			f.runMS += float64(d) / 1e6
			f.out += sp.Node.OutRows
			continue
		case sp.Node.Algorithm == shardWorker:
			continue
		case sp.Node.Algorithm == "project":
			f.projectMS += self
		case isStream(sp):
			f.kernelMS += self
			f.comparisons += p.Comparisons
			f.stateHWM = max(f.stateHWM, p.StateHighWater)
		}
		f.sortedRows += sp.Node.SortedRows
		f.examined += p.ReadLeft + p.ReadRight
		f.workspaceMax = max(f.workspaceMax, p.Workspace())
	}
	return f
}

func (s *layerSums) addEngine(f engineFigures) {
	s.runMS = append(s.runMS, f.runMS)
	s.projectMS = append(s.projectMS, f.projectMS)
	s.kernelMS = append(s.kernelMS, f.kernelMS)
	s.sortedRows = append(s.sortedRows, float64(f.sortedRows))
	s.examinedPerResult = append(s.examinedPerResult, float64(f.examined)/float64(max(f.out, 1)))
	s.comparisons = append(s.comparisons, float64(f.comparisons))
	s.workspaceMax = max(s.workspaceMax, f.workspaceMax)
	s.stateHWM = max(s.stateHWM, f.stateHWM)
}

// orderByName maps the engine's rendering of a stream order back to it.
var orderByName = func() map[string]relation.Order {
	m := map[string]relation.Order{}
	for _, a := range relation.TemporalKeys() {
		m[relation.Order{a}.String()] = relation.Order{a}
		for _, b := range relation.TemporalKeys() {
			m[relation.Order{a, b}.String()] = relation.Order{a, b}
		}
	}
	return m
}()

// noteOrder reads the order an establishOrder note names: the check that
// found the order already there, or the in-memory sort that made it.
func noteOrder(note string) (relation.Order, bool) {
	name, ok := strings.CutSuffix(strings.TrimPrefix(note, "order "), " already established (interesting order)")
	if !ok {
		if _, name, ok = strings.Cut(note, " rows in memory for order "); !ok {
			return nil, false
		}
	}
	o, ok := orderByName[name]
	return o, ok
}

// ordersEstablished is how many sides a stream node puts in order: a
// single-scan self semijoin its one input, a before-semijoin none (it is
// sort-independent), every other stream join or semijoin both.
func ordersEstablished(algorithm string) int {
	switch {
	case strings.HasPrefix(algorithm, "single-scan "):
		return 1
	case strings.HasPrefix(algorithm, "before-semijoin"):
		return 0
	}
	return 2
}

// orderInput is one order-establishing step of a stream node: the rows of
// one of its sides, that side's lifespan accessor, and the order.
type orderInput struct {
	rows  []relation.Row
	span  func(relation.Row) interval.Interval
	order relation.Order
}

// orderInputs finds every order-establishing step of tree's stream nodes
// from their span notes, and computes each step's input rows by running
// the side's subtree. A stream node whose notes do not name the orders it
// established is an error, so a change to the notes cannot silently turn
// engine.sort_ms into 0.
func orderInputs(tree algebra.Expr, db *engine.DB, spans []*obs.Span) ([]orderInput, error) {
	orders := map[string][]relation.Order{}
	for _, sp := range spans {
		if !isStream(sp) {
			continue
		}
		var ords []relation.Order
		for _, n := range sp.Node.Notes {
			if o, ok := noteOrder(n); ok {
				ords = append(ords, o)
			}
		}
		if want := ordersEstablished(sp.Node.Algorithm); len(ords) != want {
			return nil, fmt.Errorf("stream node %s (%s): notes name %d established orders, want %d: %q",
				sp.Label, sp.Node.Algorithm, len(ords), want, sp.Node.Notes)
		}
		orders[sp.Label] = ords
	}
	var inputs []orderInput
	var walk func(e algebra.Expr) error
	walk = func(e algebra.Expr) error {
		var sides []algebra.Expr
		var refs []algebra.SpanRef
		switch n := e.(type) {
		case *algebra.Join:
			sides, refs = []algebra.Expr{n.L, n.R}, []algebra.SpanRef{n.LSpan, n.RSpan}
		case *algebra.Semijoin:
			sides, refs = []algebra.Expr{n.L, n.R}, []algebra.SpanRef{n.LSpan, n.RSpan}
		}
		ords, ok := orders[e.Label()]
		if ok {
			delete(orders, e.Label())
			if len(ords) > len(sides) {
				return fmt.Errorf("stream node %s: %d established orders for %d sides", e.Label(), len(ords), len(sides))
			}
		}
		for i, o := range ords {
			out, _, err := engine.Run(db, sides[i], engine.Options{})
			if err != nil {
				return err
			}
			ts := out.Schema.ColumnIndex(refs[i].TS.Name())
			te := out.Schema.ColumnIndex(refs[i].TE.Name())
			if ts < 0 || te < 0 {
				return fmt.Errorf("stream node %s: span %v not in %s", e.Label(), refs[i], out.Schema)
			}
			// The accessor the engine builds for a recognized span.
			span := func(r relation.Row) interval.Interval {
				return interval.Interval{Start: r[ts].AsTime(), End: r[te].AsTime()}
			}
			inputs = append(inputs, orderInput{out.Rows, span, o})
		}
		for _, c := range e.Children() {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(tree); err != nil {
		return nil, err
	}
	for label := range orders {
		return nil, fmt.Errorf("stream node %s not found in the plan", label)
	}
	return inputs, nil
}

// spannedRow has the shape of the engine's own sort element: a row and
// its lifespan.
type spannedRow struct {
	row  relation.Row
	span interval.Interval
}

func spannedRowSpan(s spannedRow) interval.Interval { return s.span }

// replayOrder repeats the engine's in-memory order establishment on
// inputs and times it: wrap every row with its lifespan, check the order,
// and sort when the check fails.
func replayOrder(inputs []orderInput) time.Duration {
	st := time.Now() // lint:allow determinism — wall-time measurement, reported as such
	for _, in := range inputs {
		w := make([]spannedRow, len(in.rows))
		for i, r := range in.rows {
			w[i] = spannedRow{row: r, span: in.span(r)}
		}
		if !relation.SortedSpans(w, spannedRowSpan, in.order) {
			relation.SortSpans(w, spannedRowSpan, in.order)
		}
	}
	return time.Since(st)
}

// reportLayers turns the traced phase's sums into per-layer metrics.
func (b *bench) reportLayers(r *runResult, s *layerSums, untracedP50 float64) {
	r.add("quel.parse_us", mean(s.quelUS), "us")
	r.add("optimizer.plan_us", mean(s.optUS), "us")
	r.add("optimizer.rewrites", mean(s.rewrites), "count")
	r.add("engine.run_ms", mean(s.runMS), "ms")
	r.add("engine.sort_ms", mean(s.sortMS), "ms")
	r.add("engine.sorted_rows", mean(s.sortedRows), "count")
	r.add("engine.project_ms", mean(s.projectMS), "ms")
	r.add("engine.rows_examined_per_result", mean(s.examinedPerResult), "ratio")
	r.add("engine.workspace_max", float64(s.workspaceMax), "count")
	r.add("core.kernel_ms", mean(s.kernelMS), "ms")
	r.add("core.comparisons", mean(s.comparisons), "count")
	r.add("core.workspace_hwm", float64(s.stateHWM), "count")
	r.add("server.handler_ms", mean(s.handlers), "ms")
	r.add("server.self_ms", mean(s.serverSelf), "ms")
	r.add("server.response_kb", mean(s.respKB), "KB")
	appendRate := 0.0
	if s.appendHandler > 0 {
		appendRate = float64(s.appendRows) / s.appendHandler.Seconds()
	}
	r.add("server.append_rows_per_s", appendRate, "1/s")
	r.add("server.rejected", float64(b.e.rejected()), "count")
	r.add("driver.self_ms", mean(s.driverSelf), "ms")
	r.add("obs.traced_requests", float64(len(s.rts)), "count")
	tracedP50 := median(s.overheadRTs)
	r.add("obs.traced_p50_ms", tracedP50, "ms")
	r.add("obs.untraced_p50_ms", untracedP50, "ms")
	r.add("obs.trace_overhead_frac", tracedP50/untracedP50-1, "frac")
	r.add("obs.layer_sum_frac", median(s.layerSum), "frac")
}

// allocsPerRun measures heap allocations and bytes per call of fn on one
// processor, as testing.AllocsPerRun does; the counts repeat exactly
// between runs of the same code.
func allocsPerRun(runs int, fn func()) (allocs, kb float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm
	var a, z runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&z)
	return float64(z.Mallocs-a.Mallocs) / float64(runs), float64(z.TotalAlloc-a.TotalAlloc) / 1024 / float64(runs)
}

// allocQueries are the queries whose per-layer allocations are counted:
// the rotation's ad-hoc requests, or the standing query's retrieve twin.
func (b *bench) allocQueries() []query {
	if b.name == "ingest" {
		return []query{{name: "overlap-watch", text: overlapWatchBatch}}
	}
	var qs []query
	for _, q := range b.rot {
		if !q.prepared {
			qs = append(qs, q)
		}
	}
	return qs
}

// reportAllocs counts allocations per operation for quel, the optimizer,
// engine.Run and the server handler (through httptest), averaged over
// the workload's queries.
func (b *bench) reportAllocs(r *runResult) error {
	db := b.e.srv.DB()
	var quelA, optA, engA, engKB, srvA []float64
	for _, q := range b.allocQueries() {
		a, _ := allocsPerRun(20, func() { _, _ = frontEnd(q.text, q.params, db) })
		quelA = append(quelA, a)
		tree, err := frontEnd(q.text, q.params, db)
		if err != nil {
			return err
		}
		a, _ = allocsPerRun(20, func() {
			_, _ = optimizer.Optimize(algebra.CloneExpr(tree), db, optimizer.Options{ICs: db.ChronOrders()})
		})
		c, _ := allocsPerRun(20, func() { _ = algebra.CloneExpr(tree) })
		optA = append(optA, a-c)
		res, err := plan(q.text, q.params, db)
		if err != nil {
			return err
		}
		a, kb := allocsPerRun(5, func() { _, _, _ = engine.Run(db, res.Tree, engine.Options{}) })
		engA, engKB = append(engA, a), append(engKB, kb)
		body, err := json.Marshal(server.QueryRequest{Quel: q.text, Params: q.params})
		if err != nil {
			return err
		}
		h := b.e.srv.Handler()
		a, _ = allocsPerRun(5, func() {
			req := httptest.NewRequest("POST", "/"+server.Protocol+"/query", bytes.NewReader(body))
			h.ServeHTTP(httptest.NewRecorder(), req)
		})
		srvA = append(srvA, a)
	}
	r.add("quel.allocs", mean(quelA), "count")
	r.add("optimizer.allocs", mean(optA), "count")
	r.add("engine.allocs", mean(engA), "count")
	r.add("engine.alloc_kb", mean(engKB), "KB")
	if b.name == "ingest" {
		a, err := appendAllocs(b.seed)
		if err != nil {
			return err
		}
		srvA = []float64{a}
	}
	r.add("server.allocs", mean(srvA), "count")
	return nil
}

// liveReplay is an embedded live manager fed the same appends as the
// server, timing live.Manager.Append and StandingQuery.Poll.
type liveReplay struct {
	m *live.Manager
	q *live.StandingQuery // nil when the workload registers no standing query
}

// newLiveReplay builds the embedded manager over a fresh copy of the
// workload's catalog and, when standing is non-empty, registers that
// standing query the way the subscribe endpoint does.
func newLiveReplay(seed int64, standing string) (*liveReplay, error) {
	db, err := catalogFor("ingest", seed)
	if err != nil {
		return nil, err
	}
	if err := db.Register(relation.New(mixedRelation, relation.TupleSchema)); err != nil {
		return nil, err
	}
	lv := &liveReplay{m: live.NewManager(db, nil, engine.Options{})}
	if standing == "" {
		return lv, nil
	}
	tree, err := frontEnd(standing, nil, db)
	if err == nil {
		var res *optimizer.Result
		if res, err = optimizer.Optimize(tree, db, optimizer.Options{}); err == nil {
			lv.q, err = lv.m.Register("replay", res.Tree, live.RegisterOptions{AllowDegrade: true})
		}
	}
	if err != nil {
		lv.m.Close()
		return nil, err
	}
	return lv, nil
}

// append feeds one batch through the embedded manager, timing it.
func (lv *liveReplay) append(bt batch) (time.Duration, error) {
	if lv.m.Table(bt.rel) == nil {
		if _, err := lv.m.Live(bt.rel, ingestSlack); err != nil {
			return 0, err
		}
	}
	st := time.Now() // lint:allow determinism — wall-time measurement, reported as such
	for _, row := range bt.rows {
		if err := lv.m.Append(bt.rel, row); err != nil {
			return 0, err
		}
	}
	return time.Since(st), nil
}

// reportLive adds the live layer's figures: late rejections from the
// server's own manager, everything else from the embedded replay of the
// same appends and standing query.
func (b *bench) reportLive(r *runResult, s *layerSums, lv *liveReplay) {
	_ = b.e.srv.WithLive(func(m *live.Manager) error {
		var late int64
		for _, tbl := range m.Tables() {
			late += tbl.Rejected()
		}
		r.add("live.late_rejected", float64(late), "count")
		return nil
	})
	var hwm int64
	var bound float64
	if lv.q != nil {
		hwm, bound = lv.q.Workspace(), lv.q.Bound()
	}
	r.add("live.workspace_hwm", float64(hwm), "count")
	r.add("live.workspace_bound", bound, "count")
	rate := func(n int, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(n) / d.Seconds()
	}
	r.add("live.append_rows_per_s", rate(s.liveRows, s.liveAppend), "1/s")
	r.add("live.poll_deltas_per_s", rate(s.liveDeltas, s.livePoll), "1/s")
	r.add("live.deltas", float64(s.liveDeltas), "count")
}

// appendAllocs counts the append handler's allocations through httptest,
// on a fresh server and stream so no row is late or repeated.
func appendAllocs(seed int64) (float64, error) {
	db, err := catalogFor("ingest", seed)
	if err != nil {
		return 0, err
	}
	srv := server.New(server.Config{DB: db})
	defer func() { _ = srv.Shutdown(context.Background()) }() // never listened: shutdown only stops its sweeper
	st := newIngestStream(seed)
	var bodies [][]byte
	for i := 0; i < 7; i++ {
		bt := st.next()
		body, err := json.Marshal(server.AppendRequest{Relation: bt.rel, Rows: wireRows(bt.rows), Slack: ingestSlack})
		if err != nil {
			return 0, err
		}
		bodies = append(bodies, body)
	}
	h := srv.Handler()
	next, failed := 0, 0
	a, _ := allocsPerRun(5, func() {
		req := httptest.NewRequest("POST", "/"+server.Protocol+"/append", bytes.NewReader(bodies[next]))
		next++
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			failed++
		}
	})
	if failed > 0 {
		return 0, fmt.Errorf("%d of the counted appends failed", failed)
	}
	return a, nil
}
