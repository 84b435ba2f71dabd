#!/usr/bin/env python3
"""dcy-bench: end-to-end and per-layer benchmark of the live Data Cyclotron ring.

Run from the repository root:

    python3 dcybench/run.py --workload olap_mix --seed 1 --seconds 30 --trace 0

It builds the libraries under src/ and the driver (driver.cc) from source
into .bench_build/dcybench (Release), runs one workload against a live
3-node runtime::RingCluster driven from SQL text through the session API,
checks every answer against an independent reference, prints a report
(host and run stamp, every metric by name and unit), and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end_to_end metrics named in BENCHMARK.json, from an
untraced window; --trace 1 the per_layer metrics, from a traced window
that takes the second half of the measuring time (the first half, untraced,
gives the tracing overhead). The exit code is non-zero on any wrong answer,
and when the program cannot be built or run.

Workloads (BENCHMARK.json records why each exists):
  olap_mix      2 closed-loop sessions, prepared TPC-H Q1/Q3/Q5/Q6/Q10 in a
                seeded round-robin order.
  point_lookup  2 closed-loop sessions, ad-hoc point lookups with seeded
                literals, compiled per text.
  read_write    olap_mix's 2 readers beside one open-loop writer of marker
                rows into lineitem at 50 statements/s.

--seed decides the lookup literals, the query order and the marker keys;
the program under test only receives the generated SQL.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import metrics  # noqa: E402

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "dcybench"

# Per workload: the read-latency tail percentile, fixed as the highest of
# p90/p95/p99/p99.9 with at least 10 samples beyond it at the baseline
# sample count of a 30 s window (~330 olap_mix reads, ~4000 point_lookup
# reads, ~300 read_write reads), and the queries whose no-ring kernel floor
# makes up mal.local_exec_ms.
WORKLOADS = {
    "olap_mix": {"tail_pct": 95.0, "shapes": metrics.TPCH_SHAPES},
    "point_lookup": {"tail_pct": 99.0, "shapes": metrics.POINT_SHAPES},
    "read_write": {"tail_pct": 95.0, "shapes": metrics.TPCH_SHAPES},
}
# Write-latency tail by the same rule: read_write's writer issues ~750
# statements in the traced half of a 30 s run.
WRITE_TAIL_PCT = 95.0
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver (both incremental); False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", "dcybench_driver"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("dcybench: build step failed: " + " ".join(cmd))
            return False
    return True


def source_stamp():
    """git sha when run inside a git work tree, and a digest of the
    sources the benchmark builds (src/ and the benchmark itself), which
    identifies the code also in a plain checkout."""
    git_sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                git_sha = sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            git_sha = "none (git unavailable)"
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return git_sha, digest.hexdigest()[:16]


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}, {m["name"]: m for m in spec["per_layer"]}


def fmt(v):
    return "%.6g" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    if not build():
        return 2
    end_spec, layer_spec = load_spec()

    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    raw_path = BUILD_DIR / ("raw-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    if raw_path.exists():
        raw_path.unlink()
    cmd = [str(BUILD_DIR / "dcybench_driver"), "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
           "--trace=%d" % args.trace, "--out=" + str(raw_path)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("dcybench: driver exceeded %d s" % RUN_TIMEOUT_S)
        return 2
    if proc.returncode not in (0, 1) or not raw_path.exists():
        log("dcybench: driver failed with exit code %d" % proc.returncode)
        return 2
    raw = json.loads(raw_path.read_text())
    wall = time.monotonic() - t0

    final = raw["final_check"]
    correct = proc.returncode == 0 and not raw["mismatches"] and (final is None or final["ok"])
    window = raw["windows"][args.trace]
    attempted, failed = metrics.failure_counts(window["ops"])

    if args.trace:
        values = metrics.per_layer(raw, wl["tail_pct"], WRITE_TAIL_PCT, wl["shapes"])
        spec, extras = layer_spec, {}
    else:
        values, extras = metrics.end_to_end(raw, wl["tail_pct"])
        spec = end_spec
    missing = sorted(set(spec) - set(values))
    if missing:
        log("dcybench: metrics missing from the computation: " + ", ".join(missing))
        return 2

    git_sha, src_digest = source_stamp()
    stamp = dict(raw["stamp"])
    stamp.update({"git_sha": git_sha, "src_sha256_16": src_digest, "workload": args.workload,
                  "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "read_tail_pct": wl["tail_pct"],
                  "write_tail_pct": WRITE_TAIL_PCT if stamp["writers"] else None})
    print("# dcy-bench %s seed=%d seconds=%g trace=%d (driver wall %.1f s)"
          % (args.workload, args.seed, args.seconds, args.trace, wall))
    for k in sorted(stamp):
        print("stamp %s = %s" % (k, stamp[k]))
    for name in spec:
        print("metric %-40s %14s %s" % (name, fmt(values[name]), spec[name]["unit"]))
    if not args.trace:
        supported = metrics.tail_percentile(extras["read_samples"])
        print("read tail = p%g over %d reads, %d beyond it (this count supports p%s)"
              % (wl["tail_pct"], extras["read_samples"], extras["read_samples_beyond_tail"],
                 "%g" % supported if supported else " none"))
    print("ops attempted=%d failed=%d" % (attempted, failed))
    for op in [op for op in window["ops"] if not op["ok"]][:5]:
        print("FAILED %s %s: %s" % (op["kind"], op["shape"], op.get("error", "")))
    if final is not None:
        print("final state: %s (%s)" % ("ok" if final["ok"] else "MISMATCH", final["detail"]))
    for m in raw["mismatches"]:
        print("MISMATCH " + m)

    report = {"stamp": stamp, "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: values[n] for n in spec}}
    report_path = BUILD_DIR / ("report-%s-seed%d-trace%d.json"
                               % (args.workload, args.seed, args.trace))
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    print("report: " + str(report_path.relative_to(ROOT)))

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": values[n], "unit": spec[n]["unit"]} for n in spec}}
    bad = [n for n in spec if not math.isfinite(values[n])]
    if bad:
        log("dcybench: non-finite metrics: " + ", ".join(bad))
        return 2
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
