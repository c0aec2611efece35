#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/sets.py [--workloads W1,W2] [--seeds 1-10] [--trace 0,1]
                              [--out BENCH_results.json]
    python3 perfbench/sets.py --check

Reads the command, workloads and run length from BENCHMARK.json and runs
one invocation per (workload, trace, seed), one after another, from the
root of the checkout. For each workload and metric it prints the median,
the quartiles (statistics.quantiles, n=4) and the spread (interquartile
distance over the median), and writes them as JSON to --out. It exits
non-zero if any invocation fails or reports a wrong outcome.

--check is the count-drift gate: the traced run of auction-sim-64 for
seed 1 must reproduce the exact counts recorded in perfbench/baseline.json.
"""

import argparse
import json
import statistics
import subprocess
import sys

BASELINE = "perfbench/baseline.json"


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def invoke(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed (exit {proc.returncode})")
    return result


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def check(bench):
    with open(BASELINE) as f:
        expected = json.load(f)["counts"]
    got = invoke(bench, expected["workload"], expected["seed"], 1)["metrics"]
    drift = {name: (value, got[name]["value"])
             for name, value in expected["metrics"].items()
             if got[name]["value"] != value}
    for name, (want, have) in drift.items():
        print(f"count drift: {name} expected {want}, got {have}")
    if not drift:
        print(f"{len(expected['metrics'])} counts match {BASELINE}")
    sys.exit(1 if drift else 0)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", default="BENCH_results.json")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.check:
        check(bench)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    summary = {}
    for workload in workloads:
        for trace in [int(t) for t in args.trace.split(",")]:
            runs = [invoke(bench, workload, seed, trace)["metrics"]
                    for seed in seeds_of(args.seeds)]
            for name, first in runs[0].items():
                stats = summarise([run[name]["value"] for run in runs])
                stats["unit"] = first["unit"]
                summary.setdefault(workload, {})[name] = stats
                print(f"{workload:18} {name:36} {stats['median']:16.6f} {first['unit']:6}"
                      f" q1 {stats['q1']:.6g} q3 {stats['q3']:.6g}"
                      f" spread {100 * stats['spread']:.2f} %", flush=True)
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
