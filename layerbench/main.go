// Command layerbench is the layer-ladder benchmark: four workloads driven
// through the public database/sql driver against an in-process tdb server
// on loopback, reporting end-to-end figures untraced and per-layer figures
// from a separate traced replay. See README.md in this directory.
//
//	bash layerbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// workloads names the four workloads in report order.
var workloads = []string{"point", "scan", "ingest", "mixed"}

// A run sets its workload up at least minSetups times, and more while the
// set-ups have taken less than setupBudget in all, up to maxSetups;
// setup_s is the median CPU time of a set-up, and the last set-up is the
// one measured. Cheap set-ups thus get enough repetitions for a steady
// median.
const (
	minSetups   = 3
	maxSetups   = 50
	setupBudget = 1500 * time.Millisecond
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func parseArgs(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("layerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload: point, scan, ingest or mixed")
	fs.Int64Var(&c.seed, "seed", 1, "seed every input is derived from")
	fs.Float64Var(&c.seconds, "seconds", 10, "length of the measured interval, seconds")
	fs.IntVar(&trace, "trace", 0, "1 replays the workload traced and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	known := false
	for _, w := range workloads {
		known = known || w == c.workload
	}
	if !known {
		return c, fmt.Errorf("--workload must be one of %v, got %q", workloads, c.workload)
	}
	if c.seconds <= 0 {
		return c, fmt.Errorf("--seconds must be positive, got %g", c.seconds)
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	c.trace = trace == 1
	return c, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseArgs(args, stderr)
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "layerbench:", err) // a diagnostic; nothing to do if it fails
		return 2
	}
	rep, err := measure(cfg)
	if err == nil {
		_, err = io.WriteString(stdout, report(cfg, rep))
	}
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "layerbench:", err) // a diagnostic; nothing to do if it fails
		return 1
	}
	return 0
}

// measure sets the workload up repeatedly and runs it once.
func measure(cfg config) (*runResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.seconds*float64(time.Second))+150*time.Second)
	defer cancel()
	var setups, setupsWall []float64
	var b *bench
	var spent time.Duration
	for i := 0; i < minSetups || (i < maxSetups && spent < setupBudget); i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", i, err)
			}
		}
		// Collect first, so one set-up's garbage does not land in the next.
		runtime.GC()
		start, cpu0 := time.Now(), cpuTime() // lint:allow determinism — wall-time measurement, reported as such
		var err error
		if b, err = setUp(cfg.workload, cfg.seed, cfg.seconds, cfg.trace); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, (cpuTime() - cpu0).Seconds())
		setupsWall = append(setupsWall, d.Seconds())
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	var rep *runResult
	var err error
	switch {
	case cfg.trace:
		rep, err = b.runTraced(ctx, dur)
	case cfg.workload == "ingest":
		rep, err = b.runIngest(ctx, dur)
	case cfg.workload == "mixed":
		rep, err = b.runMixed(ctx, dur)
	default:
		rep, err = b.runReads(ctx, dur)
	}
	if cerr := b.close(); err == nil && cerr != nil {
		err = fmt.Errorf("shut down: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	rep.add("setup_s", median(setups), "s")
	rep.add("setup_wall_s", median(setupsWall), "s")
	frac := 0.0
	if rep.attempted > 0 {
		frac = float64(rep.failed) / float64(rep.attempted)
	}
	rep.add("failed_frac", frac, "frac")
	return rep, nil
}

// e2eSources maps each end-to-end metric of BENCHMARK.json to the
// workload figure it reports; see README.md for why.
var e2eSources = map[string][2]string{
	//         latency_p50_ms           cpu_ms_per_op
	"point":  {"query_rotation_p50_ms", "cpu_ms_per_query"},
	"scan":   {"query_rotation_p50_ms", "cpu_ms_per_query"},
	"ingest": {"delta_lag_p50_ms", "cpu_ms_per_batch"},
	"mixed":  {"query_rotation_p50_ms", "cpu_ms_per_query"},
}

// perLayer lists the traced run's metrics in BENCHMARK.json order.
var perLayer = []string{
	"quel.parse_us", "quel.allocs",
	"optimizer.plan_us", "optimizer.rewrites", "optimizer.allocs",
	"engine.run_ms", "engine.sort_ms", "engine.sorted_rows", "engine.project_ms",
	"engine.rows_examined_per_result", "engine.workspace_max", "engine.allocs", "engine.alloc_kb",
	"core.kernel_ms", "core.comparisons", "core.workspace_hwm",
	"server.handler_ms", "server.self_ms", "server.response_kb", "server.append_rows_per_s",
	"server.rejected", "server.allocs",
	"driver.self_ms", "driver.resumes",
	"live.append_rows_per_s", "live.poll_deltas_per_s", "live.deltas",
	"live.workspace_hwm", "live.workspace_bound", "live.late_rejected",
	"obs.trace_overhead_frac",
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonReport struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report renders the environment, every named figure with its unit, and
// the final JSON line.
func report(cfg config, rep *runResult) string {
	var w strings.Builder
	fmt.Fprintf(&w, "# layerbench workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d go=%s rev=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.Version(), revision())
	if rep.firstErr != nil {
		fmt.Fprintf(&w, "# first failure: %v\n", rep.firstErr)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(&w, "# flag: %s\n", n)
	}
	for _, l := range rep.lines {
		fmt.Fprintf(&w, "%-8s %-34s %16.6f %s\n", cfg.workload, l.name, l.value, l.unit)
	}
	out := jsonReport{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	out.Correct = rep.failed == 0 && rep.attempted > 0
	pick := func(name, from, unit string) {
		if v, ok := rep.value(from); ok {
			out.Metrics[name] = jsonMetric{Value: v, Unit: unit}
		}
	}
	if cfg.trace {
		unit := map[string]string{}
		for _, l := range rep.lines {
			unit[l.name] = l.unit
		}
		for _, m := range perLayer {
			pick(m, m, unit[m])
		}
	} else {
		src := e2eSources[cfg.workload]
		pick("setup_s", "setup_s", "s")
		pick("latency_p50_ms", src[0], "ms")
		pick("cpu_ms_per_op", src[1], "ms")
		pick("peak_heap_mb", "peak_heap_mb", "MB")
	}
	b, _ := json.Marshal(out) // a map of plain numbers and strings always encodes
	w.Write(b)
	w.WriteByte('\n')
	return w.String()
}

// revision is the VCS revision the binary was built from, when the build
// could stamp one.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	return rev + dirty
}
