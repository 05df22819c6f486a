#!/usr/bin/env python3
"""Steadiness evidence: runs each workload repeatedly on one build and
prints, per end-to-end metric, the median, the quartiles, the relative
spread (Q3 - Q1) / median, the largest relative deviation from the median
and the metric's bound from BENCHMARK.json.

    python3 wsdbench/steady.py --runs 10 [--first-seed 1] \\
        [--workload census_serve ...]

Run from the repository root. Each run gets its own seed (first-seed,
first-seed + 1, ...), as the acceptance runs do. A metric is flagged, and
the script exits non-zero, when its spread reaches a third of its bound or
any single run deviates from the median by more than the bound; setup_s
is judged like every other metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)"
                           % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append",
                   help="repeatable; default: every workload")
    args = p.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    steady = True
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i, seconds, 0)
            if not result["correct"] or result["failed"]:
                steady = False
                print("%s seed %d: incorrect or failed statements"
                      % (workload, args.first_seed + i))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (
                workload, args.first_seed + i,
                " ".join("%s=%.6g" % (n, m["value"])
                         for n, m in result["metrics"].items())), flush=True)
        print("\n%s: %d runs, seeds %d..%d" % (
            workload, args.runs, args.first_seed,
            args.first_seed + args.runs - 1))
        print("  %-16s %12s %12s %12s %8s %8s %6s" % (
            "metric", "median", "q1", "q3", "iqr/med", "maxdev", "bound"))
        for name, vals in values.items():
            q1, med, q3 = stats.quartiles(vals)
            spread = stats.relative_iqr(vals)
            maxdev = stats.max_relative_deviation(vals)
            flags = []
            if spread >= bounds[name] / 3:
                flags.append("spread >= bound/3")
            if maxdev > bounds[name]:
                flags.append("maxdev > bound")
            steady = steady and not flags
            print("  %-16s %12.6g %12.6g %12.6g %8.4f %8.4f %6.3f%s" % (
                name, med, q1, q3, spread, maxdev, bounds[name],
                "  <-- " + ", ".join(flags) if flags else ""))
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
