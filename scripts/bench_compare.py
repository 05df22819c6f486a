#!/usr/bin/env python3
"""Benchmark regression gate: diff fresh BENCH_*.json against baselines.

Four PRs of performance work (value interning, cluster factorization,
compiled expressions, the plan optimizer, binary snapshots) emit
machine-readable BENCH_<name>.json files. This script compares a fresh
set against the committed baselines in bench/baselines/ and fails when
any keyed entry slowed down by more than --max-slowdown (default 1.25,
i.e. >25%), so a PR cannot silently give a speedup back.

Semantics per baseline file BENCH_x.json:
  - missing fresh counterpart          -> FAIL (the bench stopped running)
  - entry missing from fresh output    -> FAIL (a keyed entry was dropped)
  - fresh ns_per_op >  max_slowdown*b  -> FAIL (regression)
  - fresh ns_per_op <= max_slowdown*b  -> ok (improvements are reported,
                                         not enforced; refresh baselines
                                         to lock them in)
  - baseline entry with "exact": true  -> FAIL on any difference, in
                                         either direction (deterministic
                                         work counters, not times)
Entries only present in the fresh output are new and pass (commit an
updated baseline to start gating them).

Baselines are wall-clock numbers from a specific machine class; refresh
them (copy the fresh files over bench/baselines/ and commit) whenever
the CI runner hardware or the bench scales change.

--fresh-dir may be given multiple times; entries are merged by taking
the per-entry minimum across runs. Two full bench passes separated by
minutes absorb bursty scheduler/clock-throttle noise far better than
back-to-back repetitions inside one pass, so CI runs the suite twice.

Usage:
  scripts/bench_compare.py [--baseline-dir bench/baselines]
                           [--fresh-dir build/bench]...
                           [--max-slowdown 1.25]
"""

import argparse
import json
import os
import sys


def load_entries(path):
    """Returns {name: ns_per_op} for one BENCH_*.json file."""
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    entries = {}
    for item in data:
        entries[item["name"]] = float(item["ns_per_op"])
    return entries


def load_exact_names(path):
    """Names of the entries of one BENCH_*.json file gated exactly."""
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    return {item["name"] for item in data if item.get("exact")}


def fmt_ns(ns):
    if ns >= 1e9:
        return "%.2f s" % (ns / 1e9)
    if ns >= 1e6:
        return "%.2f ms" % (ns / 1e6)
    if ns >= 1e3:
        return "%.2f us" % (ns / 1e3)
    return "%.0f ns" % ns


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--fresh-dir", action="append", default=None,
                        help="directory with fresh BENCH_*.json; repeatable "
                             "(entries merged by per-entry minimum)")
    parser.add_argument("--max-slowdown", type=float, default=1.25,
                        help="fail when fresh > baseline * this factor")
    args = parser.parse_args()
    fresh_dirs = args.fresh_dir or ["build/bench"]

    baselines = sorted(
        f for f in os.listdir(args.baseline_dir)
        if f.startswith("BENCH_") and f.endswith(".json"))
    if not baselines:
        print("no baselines in %s — nothing to gate" % args.baseline_dir)
        return 1

    failures = []
    rows = []
    for fname in baselines:
        base = load_entries(os.path.join(args.baseline_dir, fname))
        exact = load_exact_names(os.path.join(args.baseline_dir, fname))
        fresh = {}
        for d in fresh_dirs:
            path = os.path.join(d, fname)
            if not os.path.exists(path):
                continue
            for name, ns in load_entries(path).items():
                if name not in fresh or ns < fresh[name]:
                    fresh[name] = ns
        if not fresh:
            failures.append("%s: no fresh results (bench did not run?)"
                            % fname)
            continue
        for name, base_ns in base.items():
            if name not in fresh:
                failures.append("%s: keyed entry '%s' missing from fresh "
                                "output" % (fname, name))
                continue
            fresh_ns = fresh[name]
            if name in exact:
                status = "ok"
                if fresh_ns != base_ns:
                    status = "CHANGED"
                    failures.append(
                        "%s: counter '%s' changed %g -> %g (gated exactly)"
                        % (fname, name, base_ns, fresh_ns))
                rows.append((fname.replace("BENCH_", "").replace(".json", ""),
                             name, "%g" % base_ns, "%g" % fresh_ns,
                             "exact", status))
                continue
            ratio = fresh_ns / base_ns if base_ns > 0 else float("inf")
            status = "ok"
            if ratio > args.max_slowdown:
                status = "REGRESSION"
                failures.append(
                    "%s: '%s' slowed down %.2fx (%s -> %s, limit %.2fx)"
                    % (fname, name, ratio, fmt_ns(base_ns),
                       fmt_ns(fresh_ns), args.max_slowdown))
            elif ratio < 0.8:
                status = "improved"
            rows.append((fname.replace("BENCH_", "").replace(".json", ""),
                         name, fmt_ns(base_ns), fmt_ns(fresh_ns),
                         "%+.1f%%" % ((ratio - 1.0) * 100.0), status))
        for name in fresh:
            if name not in base:
                rows.append((fname.replace("BENCH_", "").replace(".json", ""),
                             name, "-", fmt_ns(fresh[name]), "-", "new"))

    if rows:
        headers = ("bench", "entry", "baseline", "fresh", "delta", "status")
        widths = [max(len(str(r[i])) for r in rows + [headers])
                  for i in range(len(headers))]
        line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
        print(line)
        print("-" * len(line))
        for r in rows:
            print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))

    if failures:
        print("\nbenchmark regression gate FAILED (>%.0f%% slowdown, or an "
              "exact counter changed):" % ((args.max_slowdown - 1.0) * 100.0))
        for f in failures:
            print("  " + f)
        return 1
    print("\nbenchmark regression gate passed (%d entries checked)"
          % len(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
