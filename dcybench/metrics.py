"""dcy-bench arithmetic: turns the driver's raw document into metrics.

Everything here is a pure function of the raw measurements, so it is
unit-tested without a ring (test_metrics.py).
"""

import math
import statistics

TAIL_CANDIDATES = (90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10

# Counters that are levels, not running totals: a window reports their
# value at its end instead of a difference.
GAUGES = frozenset({"storage.resident_bytes", "write.pending_deltas"})

# Spans the driver records around each read and each write (the root is
# op.read or op.write); self time is reported per operation kind, also
# when a workload records none of them (then 0).
READ_SPANS = ("op.read", "runtime.prepare", "runtime.submit_wait", "runtime.queued",
              "runtime.exec", "runtime.pin_blocked", "check.validate")
WRITE_SPANS = ("op.write", "runtime.prepare", "runtime.submit_wait", "runtime.queued",
               "runtime.exec", "runtime.pin_blocked")
# Spans around the direct layer calls timed outside any operation (qid 0).
SIDE_SPANS = ("sql.compile", "opt.optimize", "bat.serialize", "bat.deserialize",
              "mal.local_exec")

TPCH_SHAPES = ("q1", "q3", "q5", "q6", "q10")
POINT_SHAPES = ("pl_custkey", "pl_nation_count", "pl_supplier_top5", "pl_region_nations")

MIB = 1024.0 * 1024.0


def _rank(n, p):
    # Rounded first, so that 99.9% of 1000 is rank 999, not 1000.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n, candidates=TAIL_CANDIDATES, min_beyond=MIN_BEYOND):
    """The highest candidate percentile with at least `min_beyond` of n
    samples beyond it, or None when even the lowest has fewer."""
    eligible = [p for p in candidates if samples_beyond(n, p) >= min_beyond]
    return max(eligible) if eligible else None


def latency_ms(op):
    """An operation's latency. Open-loop operations (with a due time) are
    timed from when they were due, so a stall also counts against the
    operations it delayed; closed-loop ones from when they started."""
    start = op["due_ms"] if "due_ms" in op else op["start_ms"]
    return op["end_ms"] - start


def lag_ms(op):
    """How late an open-loop operation started after its due time."""
    return max(0.0, op["start_ms"] - op["due_ms"])


def latencies(ops):
    """Latencies of `ops`, a failed operation counting as slower than any
    completed one (it missed every latency limit)."""
    return [latency_ms(op) if op["ok"] else math.inf for op in ops]


def failure_counts(ops):
    """(attempted, failed) over submission attempts. An operation that took
    k attempts counts k attempted and k - 1 failed, plus one more failed if
    it never succeeded: refusals, timeouts and retried attempts all count."""
    attempted = failed = 0
    for op in ops:
        attempts = max(1, op.get("attempts", 1))
        attempted += attempts
        failed += attempts - 1 + (0 if op["ok"] else 1)
    return attempted, failed


def window_delta(before, after, gauges=GAUGES):
    """Counter changes over a window: after - before for running totals,
    the end value for gauges. Counters absent before start at 0."""
    return {k: (v if k in gauges else v - before.get(k, 0.0)) for k, v in after.items()}


def ratio(num, den, empty=0.0):
    return num / den if den else empty


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Per span name, the self time of each span: its duration minus the
    part of it covered by its children (overlapping children count once)."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append((s["start_ms"], s["end_ms"]))
    out = {}
    for s in spans:
        kids = children.get(s["id"], [])
        own = (s["end_ms"] - s["start_ms"]) - covered_length(kids, s["start_ms"], s["end_ms"])
        out.setdefault(s["name"], []).append(own)
    return out


def spans_by_kind(spans):
    """Splits spans into the trees of read operations, of write operations,
    and the side spans that belong to no operation (qid 0)."""
    roots = {sp["qid"]: sp["name"] for sp in spans if sp["qid"] and not sp["parent"]}
    out = {"read": [], "write": [], "side": []}
    for sp in spans:
        kind = "side" if not sp["qid"] else roots[sp["qid"]].split(".", 1)[1]
        out[kind].append(sp)
    return out


def _window_seconds(w):
    return (w["end_ms"] - w["start_ms"]) / 1e3


def _reads(w):
    return [op for op in w["ops"] if op["kind"] == "read"]


def _writes(w):
    return [op for op in w["ops"] if op["kind"] == "write"]


def _clamped_percentile(ops, p, w):
    """Latency percentile of `ops` (0 when there are none). A failed
    operation landing on the percentile counts as taking the whole window,
    so the figure stays finite."""
    if not ops:
        return 0.0
    return min(percentile(latencies(ops), p), w["end_ms"] - w["start_ms"])


def read_summary(w, tail_pct):
    """qps, p50 and tail of the reads in window `w`."""
    reads = _reads(w)
    completed = sum(1 for op in reads if op["ok"])
    return {
        "qps": completed / _window_seconds(w),
        "read_p50_ms": _clamped_percentile(reads, 50, w),
        "read_tail_ms": _clamped_percentile(reads, tail_pct, w),
        "read_samples": len(reads),
        "read_samples_beyond_tail": samples_beyond(len(reads), tail_pct),
    }


def end_to_end(raw, tail_pct):
    """End-to-end metrics of the untraced window, plus report-only extras
    (sample counts), as {name: value}."""
    w = raw["windows"][0]
    s = read_summary(w, tail_pct)
    completed = sum(1 for op in w["ops"] if op["ok"])
    return {
        "setup_s": statistics.median(raw["setup"]["setup_s"]),
        "qps": s["qps"],
        "read_p50_ms": s["read_p50_ms"],
        "read_tail_ms": s["read_tail_ms"],
        "cpu_ms_per_op": ratio(w["cpu_s"] * 1e3, completed),
        "peak_rss_mb": raw["peak_rss_kib"] / 1024.0,
    }, {
        "read_samples": s["read_samples"],
        "read_samples_beyond_tail": s["read_samples_beyond_tail"],
    }


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def per_layer(raw, tail_pct, write_tail_pct, workload_shapes):
    """Per-layer metrics of the traced window (windows[1]; windows[0] is the
    untraced window of equal length) as {name: value}.
    Counter metrics are window deltas, normalised per completed operation
    ("query", reads and writes alike), per pin, per hop or per commit."""
    untraced, traced = raw["windows"][0], raw["windows"][1]
    d = window_delta(traced["before"], traced["after"])
    ops = traced["ops"]
    reads_ok = [op for op in _reads(traced) if op["ok"]]
    writes = _writes(traced)
    n_ops = sum(1 for op in ops if op["ok"])
    n_reads = len(reads_ok)
    pins = d["core.pins_total"]
    hops = d["bat.hops"]
    side = raw["side"]
    setup = raw["setup"]
    attempted, failed = failure_counts(ops)

    m = {
        "workload.generate_s": statistics.median(setup["generate_s"]),
        "runtime.load_s": statistics.median(setup["load_s"]),
        "sql.compile_us": _mean([c["compile_us"] for c in side["compile"]]),
        "opt.optimize_us": _mean([c["optimize_us"] for c in side["compile"]]),
        "runtime.prepare_us": statistics.median([op["prepare_us"] for op in _reads(traced)]),
        "runtime.plan_cache_hit_ratio": ratio(
            d["runtime.plan_cache_hits"],
            d["runtime.plan_cache_hits"] + d["runtime.plan_cache_misses"]),
        "runtime.queued_ms": _mean([op["queued_ms"] for op in reads_ok]),
        "runtime.exec_ms": _mean([op["exec_ms"] for op in reads_ok]),
        "runtime.pin_blocked_ms": _mean([op["pin_blocked_ms"] for op in reads_ok]),
        "runtime.attempts_per_op": _mean([op["attempts"] for op in ops]),
        "runtime.admission_rejected": d["runtime.admission_rejected"],
        "exec.tasks_per_query": ratio(d["exec.tasks_executed"], n_ops),
        "exec.tasks_stolen_frac": ratio(d["exec.tasks_stolen"], d["exec.tasks_executed"]),
        "exec.blocking_sections_per_query": ratio(d["exec.blocking_sections"], n_ops),
        "core.pins_per_query": ratio(pins, n_ops),
        "core.pins_blocked_frac": ratio(d["core.pins_blocked"], pins),
        "core.pins_local_hit_frac": ratio(d["core.pins_local_hit"], pins),
        "core.resends_per_pin": ratio(d["core.resends"], pins),
        "core.request_msgs_per_pin": ratio(d["core.request_msgs_sent"], pins),
        "core.loads_per_query": ratio(d["core.bats_loaded"], n_ops),
        "core.unloads_per_query": ratio(d["core.bats_unloaded"], n_ops),
        "core.bats_presumed_lost": d["core.bats_presumed_lost"],
        "net.retransmits_per_hop": ratio(d["net.retransmits"], hops),
        "net.acks_per_hop": ratio(d["net.acks_sent"], hops),
        "net.frames_duplicate_per_hop": ratio(d["net.frames_duplicate"], hops),
        "net.frames_corrupted": d["net.frames_corrupted"],
        "net.hops_per_query": ratio(hops, n_ops),
        "rdma.bytes_moved_per_query": ratio(d["rdma.bytes_moved"], n_ops),
        "bat.wire_bytes_per_hop": ratio(d["bat.hop_bytes"], hops),
        # Frames encoded before the window (at load) still circulate; with
        # none encoded inside it, the ratio of everything encoded so far.
        "bat.encoded_vs_raw_bytes": (
            ratio(d["bat.wire_bytes"], d["bat.raw_bytes"]) if d["bat.raw_bytes"]
            else ratio(traced["after"]["bat.wire_bytes"], traced["after"]["bat.raw_bytes"],
                       1.0)),
        "bat.serialize_ms_per_mb": ratio(side["codec"]["serialize_ms"],
                                         side["codec"]["wire_bytes"] / MIB),
        "bat.deserialize_ms_per_mb": ratio(side["codec"]["deserialize_ms"],
                                           side["codec"]["wire_bytes"] / MIB),
        "storage.resident_mb": d["storage.resident_bytes"] / MIB,
        "storage.evictions": d["storage.evictions"],
        "write.merges_per_read": ratio(d["write.merges"], n_reads),
        "write.merge_ms_per_read": ratio(d["write.merge_seconds"] * 1e3, n_reads),
        "write.delta_frames_per_commit": ratio(d["write.delta_frames_forwarded"],
                                               d["write.commits"]),
        "write.compactions": d["write.compactions"],
        "write.pending_deltas_end": d["write.pending_deltas"],
        "gen.failed_frac": ratio(failed, attempted),
        "gen.write_lag_ms": _mean([lag_ms(op) for op in writes]),
        "gen.write_p50_ms": _clamped_percentile(writes, 50, traced),
        "gen.write_tail_ms": _clamped_percentile(writes, write_tail_pct, traced),
    }

    local = {c["shape"]: c["ms"] for c in side["local_exec"]}
    m["mal.local_exec_ms"] = _mean([local[s] for s in workload_shapes])
    for shape in TPCH_SHAPES + POINT_SHAPES:
        m["mal.local_exec_ms." + shape] = local[shape]

    trees = spans_by_kind(raw["spans"])
    for kind, names in (("read", READ_SPANS), ("write", WRITE_SPANS), ("side", SIDE_SPANS)):
        selfs = self_times(trees[kind])
        for name in names:
            key = "self_ms." + name if kind == "side" else "self_ms.%s.%s" % (kind, name)
            m[key] = _mean(selfs.get(name, []))

    before = read_summary(untraced, tail_pct)
    after = read_summary(traced, tail_pct)
    m["trace.overhead_frac"] = ratio(before["qps"] - after["qps"], before["qps"])
    m["trace.overhead_frac_p50"] = ratio(after["read_p50_ms"] - before["read_p50_ms"],
                                         before["read_p50_ms"])
    return m
