#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each end-to-end metric's
median and quartile spread (IQR / median), the figure its bound in
BENCHMARK.json is checked against.

    python3 layerbench/spread.py --workload scan --seeds 1-10

Run it from the root of the checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="first-last")
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values = {}
    for seed in range(lo, hi + 1):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: incorrect run: {res}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
              flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print(f"{name:28s} median {med:14.6g}  spread {spread:7.3f}  bound {bound}  {flag}")


if __name__ == "__main__":
    main()
