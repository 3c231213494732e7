package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// named are the figures each workload prints as lines, by unit.
var named = map[string]map[string]string{
	"point": {"query_p50_ms": "ms", "query_rotation_p50_ms": "ms", "query_p90_ms": "ms", "query_p99_ms": "ms", "queries_per_s": "1/s",
		"cpu_ms_per_query": "ms"},
	"scan": {"query_p50_ms": "ms", "query_rotation_p50_ms": "ms", "query_p90_ms": "ms", "rows_per_s": "1/s", "cpu_ms_per_query": "ms"},
	"ingest": {"ingest_rows_per_s": "1/s", "append_p50_ms": "ms", "append_p99_ms": "ms",
		"delta_lag_p50_ms": "ms", "delta_lag_p90_ms": "ms", "delta_lag_p99_ms": "ms", "cpu_ms_per_batch": "ms"},
	"mixed": {"query_p50_ms": "ms", "query_rotation_p50_ms": "ms", "query_p90_ms": "ms", "queries_per_s": "1/s", "cpu_ms_per_query": "ms",
		"append_p50_ms": "ms", "append_p90_ms": "ms", "append_p99_ms": "ms", "bench.generator_late_ms": "ms"},
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that every named metric appears with its unit, that failed_frac is 0,
// and that the JSON line carries exactly the metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs every workload")
	}
	sp := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := run([]string{"--workload", w, "--seed", "3", "--seconds", "0.5", "--trace", trace}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				units := map[string]string{}
				values := map[string]float64{}
				for _, l := range lines[:len(lines)-1] {
					f := strings.Fields(l)
					if len(f) != 4 || f[0] != w {
						continue
					}
					v, err := strconv.ParseFloat(f[2], 64)
					if err != nil {
						t.Fatalf("line %q: %v", l, err)
					}
					units[f[1]], values[f[1]] = f[3], v
				}
				want := map[string]string{"setup_s": "s", "setup_wall_s": "s", "failed_frac": "frac"}
				if trace == "0" {
					want["peak_heap_mb"] = "MB"
					for k, u := range named[w] {
						want[k] = u
					}
				}
				for name, unit := range want {
					if units[name] != unit {
						t.Errorf("metric %s: unit %q, want %q", name, units[name], unit)
					}
				}
				if values["failed_frac"] != 0 {
					t.Errorf("failed_frac = %g, want 0", values["failed_frac"])
				}

				var rep jsonReport
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line is not the JSON report: %v", err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("report: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				listed := sp.EndToEnd
				if trace == "1" {
					listed = sp.PerLayer
				}
				if len(rep.Metrics) != len(listed) {
					t.Errorf("JSON carries %d metrics, BENCHMARK.json lists %d", len(rep.Metrics), len(listed))
				}
				for _, m := range listed {
					got, ok := rep.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("JSON metric %s: %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
					}
				}
			})
		}
	}
}

// TestBadArgs checks that invalid invocations fail without a report.
func TestBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "point", "--seconds", "0"},
		{"--workload", "point", "--trace", "2"},
		{"--workload", "point", "extra"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
