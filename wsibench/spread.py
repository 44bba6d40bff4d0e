#!/usr/bin/env python3
"""Measure the run-to-run spread of every end-to-end metric.

Runs the command declared in BENCHMARK.json once per (set, seed, workload),
seeds interleaved across workloads, and reports for each set and metric the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to the metric's bound. With two or more sets it also
reports how far each later set's median moved from the first set's, in the
metric's "worse" direction. Set s uses seeds first_seed + 100 * s onwards.

Run from the repository root:

    python3 wsibench/spread.py --sets 3 --runs 10 --out wsibench/sets.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=False)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result.get("correct"):
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, result {result}")
    return result, wall


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--out", default=None, help="write every value as JSON")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    sets = []
    for s in range(opts.sets):
        values = {w: {m: [] for m in metrics} for w in workloads}
        walls = {w: [] for w in workloads}
        seeds = [opts.first_seed + 100 * s + r for r in range(opts.runs)]
        for seed in seeds:
            for w in workloads:
                result, wall = run_once(bench["command"], w, seed, bench["run_seconds"], 0)
                walls[w].append(wall)
                for m in metrics:
                    values[w][m].append(result["metrics"][m]["value"])
                print(f"set {s + 1} seed {seed} {w}: {wall:.1f} s", file=sys.stderr)
        sets.append({"seeds": seeds, "values": values, "run_wall_s": walls})

    print(f"{'workload':<16} {'metric':<12} {'set':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6} {'moved':>7}")
    for w in workloads:
        for m, decl in metrics.items():
            first = None
            for s, data in enumerate(sets):
                st = summarize(data["values"][w][m])
                data.setdefault("summary", {}).setdefault(w, {})[m] = st
                moved = ""
                if first is None:
                    first = st["median"]
                else:
                    sign = 1 if decl["better"] == "lower" else -1
                    moved = f"{sign * (st['median'] - first) / first:+.3f}"
                print(f"{w:<16} {m:<12} {s + 1:>3} {st['median']:>12.5g} {st['q1']:>12.5g} "
                      f"{st['q3']:>12.5g} {st['spread']:>7.3f} {decl['bound']:>6} {moved:>7}")
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump({"run_seconds": bench["run_seconds"], "nproc": os.cpu_count(),
                       "sets": sets}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
