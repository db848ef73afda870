#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end
metric's spread: the distance between the first and third quartile of
its values (statistics.quantiles, n=4) as a share of their median.

Run from the repository root:

    python3 perfbench/spread.py --workload live-stream --seeds 1-10

A spread above a third of the metric's bound in BENCHMARK.json is
flagged; `setup_s` is reported but not judged, as its spread is not
bounded.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            sys.exit(1)
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect result {lines[-1]}")
            sys.exit(1)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {shown}", flush=True)

    if args.trace != "0":
        return
    worst = 0.0
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        judged = name != "setup_s" and bound is not None
        flag = ""
        if judged and spread > bound / 3:
            flag = "  <-- above a third of the bound"
        if judged:
            worst = max(worst, spread / bound)
        print(f"{args.workload:15s} {name:15s} median {med:12.6g}  spread {spread:.4f}  bound {bound}{flag}")
    print(f"worst spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
