#!/usr/bin/env python3
"""Runs one wsdbench workload and prints its metrics.

    python3 wsdbench/run.py --workload census_mapped --seed 1 --seconds 10 \\
        --trace 0

Run from the repository root. Builds the engine and the wsdbench binary from
source with CMake (into $CARGO_TARGET_DIR, default .bench_build; a no-op
once built), runs the binary with its scratch files under .bench_work/,
and prints one human-readable line per metric followed, as the last
line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced
variant and reports the per-layer metrics (see README.md). Exits non-zero
without a result when the engine sources are missing, the build or the
run fails, or a metric cannot be computed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("census_mapped", "census_serve", "stream_durable")
RUN_TIMEOUT_S = 170

# name, unit
END_TO_END = [
    ("throughput_sps", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p95_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("recover_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("space_ratio", "ratio"),
]

# name, unit, source. Sources:
#   ("span", span name, ns per unit, "median" | "per_setup")
#       median self time of the named spans, or their summed self time
#       per set-up repetition; 0 when the workload records no such span;
#   ("layer", key)          a counter-derived value the binary computed;
#   ("median"|"p95", key)   of a raw sample list (0 when empty);
#   ("scalar", key)         a value the binary measured directly;
#   ("overhead",)           traced minus untraced read p50, in percent.
PER_LAYER = [
    ("sql.parse_us", "us", ("span", "sql.parse", 1e3, "median")),
    ("sql.plan_us", "us", ("span", "sql.plan", 1e3, "median")),
    ("sql.optimize_us", "us", ("span", "sql.optimize", 1e3, "median")),
    ("core.mapped.materialize_ms", "ms",
     ("span", "core.mapped.materialize", 1e6, "median")),
    ("core.mapped.bytes_decoded_per_stmt", "bytes",
     ("layer", "core.mapped.bytes_decoded_per_stmt")),
    ("core.mapped.shards_kept_ratio", "ratio",
     ("layer", "core.mapped.shards_kept_ratio")),
    ("core.mapped.resident_peak_mb", "MiB",
     ("layer", "core.mapped.resident_peak_mb")),
    ("core.lifted.execute_ms", "ms",
     ("span", "core.lifted.execute", 1e6, "median")),
    ("core.lifted.input_rows_per_output_row", "ratio",
     ("layer", "core.lifted.input_rows_per_output_row")),
    ("core.conf.exact_ms", "ms", ("span", "core.conf.exact", 1e6, "median")),
    ("core.conf.cache_hit_ratio", "ratio",
     ("layer", "core.conf.cache_hit_ratio")),
    ("core.conf.approx_ms", "ms",
     ("span", "core.conf.approx", 1e6, "median")),
    ("core.conf.approx_samples_per_stmt", "count",
     ("layer", "core.conf.approx_samples_per_stmt")),
    ("core.delta.apply_ms", "ms", ("span", "core.delta.apply", 1e6, "median")),
    ("core.delta.dirty_components_per_write", "count",
     ("layer", "core.delta.dirty_components_per_write")),
    ("storage.env.fsync_ms", "ms", ("layer", "storage.env.fsync_ms")),
    ("storage.env.fsyncs_per_write", "count",
     ("layer", "storage.env.fsyncs_per_write")),
    ("storage.env.bytes_written_per_user_byte", "ratio",
     ("layer", "storage.env.bytes_written_per_user_byte")),
    ("storage.env.errors", "count", ("layer", "storage.env.errors")),
    ("storage.snapshot.checkpoint_ms", "ms",
     ("layer", "storage.snapshot.checkpoint_ms")),
    ("storage.snapshot.checkpoints", "count",
     ("layer", "storage.snapshot.checkpoints")),
    ("storage.snapshot.load_ms", "ms",
     ("span", "storage.snapshot.load", 1e6, "median")),
    ("storage.wal.replay_ms", "ms",
     ("span", "storage.wal.replay", 1e6, "median")),
    ("server.catalog.snapshot_copy_us", "us",
     ("span", "server.catalog.snapshot_copy", 1e3, "median")),
    ("server.catalog.commit_ms", "ms",
     ("span", "server.catalog.commit", 1e6, "median")),
    ("server.wait_ms", "ms", ("median", "server_wait_ms")),
    ("server.encode_us", "us", ("span", "server.encode", 1e3, "median")),
    ("server.result_cache_hit_ratio", "ratio",
     ("layer", "server.result_cache_hit_ratio")),
    ("server.rejected", "count", ("layer", "server.rejected")),
    ("gen.census_ms", "ms", ("span", "gen.census", 1e6, "per_setup")),
    ("chase.enforce_ms", "ms", ("span", "chase.enforce", 1e6, "per_setup")),
    ("storage.snapshot.save_ms", "ms",
     ("span", "storage.snapshot.save", 1e6, "per_setup")),
    ("process.cpu_util", "ratio", ("scalar", "cpu_util")),
    ("sql.session.write_p95_ms", "ms", ("p95", "write_ms")),
    ("trace.overhead_pct", "%", ("overhead",)),
]

# A percentile needs at least this many samples beyond it.
MIN_BEYOND = 10
# recover_s drops this share of its fastest and slowest samples.
RECOVER_TRIM = 0.1


class MetricError(Exception):
    pass


def need(samples, key, minimum):
    values = samples.get(key) or []
    if len(values) < minimum:
        raise MetricError("%s: %d samples, need at least %d"
                          % (key, len(values), minimum))
    return values


def end_to_end(raw):
    """{name: (value, unit, sample count)} for every end-to-end metric."""
    s, sc = raw["samples"], raw["scalars"]
    reads = s.get("read_ms") or []
    read_n = len(reads)
    if stats.samples_beyond(read_n, 95) < MIN_BEYOND:
        raise MetricError("read_ms: %d samples leave fewer than %d beyond "
                          "the 95th percentile" % (read_n, MIN_BEYOND))
    out = {}
    out["throughput_sps"] = (sc["throughput_sps"], read_n
                             + len(s.get("write_ms") or []))
    out["read_p50_ms"] = (statistics.median(reads), read_n)
    out["read_p95_ms"] = (stats.percentile(reads, 95), read_n)
    writes = need(s, "write_ms", 5)
    out["write_p50_ms"] = (statistics.median(writes), len(writes))
    # Recovery times fall into a fast and a slow mode as the host's memory
    # speed shifts for seconds at a time; a median snaps to whichever mode
    # has the slight majority, a mean moves with the mix.
    rec = need(s, "recover_s", 3)
    out["recover_s"] = (stats.trimmed_mean(rec, RECOVER_TRIM), len(rec))
    setups = need(s, "setup_s", 1)
    out["setup_s"] = (statistics.median(setups), len(setups))
    out["peak_rss_mb"] = (sc["peak_rss_mb"], 1)
    out["space_ratio"] = (sc["space_ratio"], 1)
    return {name: (out[name][0], unit, out[name][1])
            for name, unit in END_TO_END}


def per_layer(raw, spans):
    """{name: (value, unit, sample count)} for every per-layer metric."""
    by_name = stats.self_times_by_name(spans)
    reps = int(raw["config"].get("setup_reps", "1"))
    out = {}
    for name, unit, src in PER_LAYER:
        kind = src[0]
        n = 1
        if kind == "span":
            times = by_name.get(src[1], [])
            n = len(times)
            if not times:
                value = 0.0
            elif src[3] == "median":
                value = statistics.median(times) / src[2]
            else:
                value = sum(times) / src[2] / reps
        elif kind == "layer":
            value = float(raw["layer"].get(src[1], 0.0))
        elif kind in ("median", "p95"):
            values = raw["samples"].get(src[1]) or []
            n = len(values)
            if not values:
                value = 0.0
            elif kind == "median":
                value = statistics.median(values)
            else:
                value = stats.percentile(values, 95)
        elif kind == "scalar":
            value = float(raw["scalars"][src[1]])
        else:  # overhead
            traced = need(raw["samples"], "read_ms", 1)
            untraced = need(raw["samples"], "untraced_read_ms", 1)
            base = statistics.median(untraced)
            value = 100.0 * (statistics.median(traced) - base) / base
            n = len(traced)
        out[name] = (value, unit, n)
    return out


def build(root):
    """Configures and builds the wsdbench binary; returns its path."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "wsdbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "wsdbench"], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return os.path.join(build_dir, "wsdbench")


def run(args):
    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        print("run.py: engine sources (src/) not found under %s; run from "
              "the repository root" % root, file=sys.stderr)
        return 2
    binary = build(root)
    work = os.path.join(root, ".bench_work", "%s-%d-%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    raw_path = os.path.join(work, "raw.json")
    spans_path = os.path.join(work, "spans.tsv")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(work, "db"), "--out", raw_path]
    if args.trace:
        cmd += ["--spans", spans_path]
    try:
        t0 = time.monotonic()
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            print("run.py: wsdbench exited with %d" % proc.returncode,
                  file=sys.stderr)
            return 1
        wall = time.monotonic() - t0
        with open(raw_path) as f:
            raw = json.load(f)
        if args.trace:
            with open(spans_path) as f:
                spans = stats.parse_spans(f)
            metrics = per_layer(raw, spans)
        else:
            metrics = end_to_end(raw)
    except subprocess.TimeoutExpired:
        print("run.py: wsdbench exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    except (MetricError, KeyError, ValueError) as e:
        print("run.py: cannot compute metrics: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = all(raw["checks"].values()) and raw["failed"] == 0
    print("# %s seed=%d trace=%d: %d attempted, %d failed, checks %s, "
          "wall %.1fs" % (args.workload, args.seed, args.trace,
                                 raw["attempted"], raw["failed"],
                                 "pass" if correct else "FAIL", wall))
    for detail in raw["check_details"]:
        print("#   %s" % detail)
    for key, value in sorted(raw["config"].items()):
        print("# config %s = %s" % (key, value))
    for name, (value, unit, n) in metrics.items():
        print("# %-42s %14.6g %-6s n=%d" % (name, value, unit, n))
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
