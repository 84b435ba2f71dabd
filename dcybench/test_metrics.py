"""Unit tests of dcy-bench's own arithmetic (metrics.py).

Run from the repository root: python3 -m unittest discover -s dcybench
"""

import math
import unittest

import metrics


def op(start, end, ok=True, attempts=1, due=None, kind="read"):
    o = {"kind": kind, "start_ms": start, "end_ms": end, "ok": ok, "attempts": attempts}
    if due is not None:
        o["due_ms"] = due
    return o


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(metrics.tail_percentile(99))    # p90 leaves 9 beyond
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(199), 90.0)
        self.assertEqual(metrics.tail_percentile(200), 95.0)
        self.assertEqual(metrics.tail_percentile(999), 95.0)  # p99 leaves 9
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(10000), 99.9)

    def test_samples_beyond_counts_strictly_above_rank(self):
        self.assertEqual(metrics.samples_beyond(100, 90), 10)
        self.assertEqual(metrics.samples_beyond(101, 90), 10)  # rank ceil(90.9) = 91
        self.assertEqual(metrics.samples_beyond(1000, 99.9), 1)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 90), 90)
        self.assertEqual(metrics.percentile(reversed(values), 99), 99)
        self.assertEqual(metrics.percentile([7], 99.9), 7)


class FailureAccountingTest(unittest.TestCase):
    def test_retries_count_as_failures(self):
        ops = [op(0, 1), op(0, 1, attempts=3), op(0, 1, ok=False, attempts=2), op(0, 1, ok=False)]
        # 1 + 3 + 2 + 1 attempts; failed: 0 + 2 + (1 + 1) + 1.
        self.assertEqual(metrics.failure_counts(ops), (7, 5))

    def test_failed_ops_are_slower_than_any_completed(self):
        lat = metrics.latencies([op(0, 5), op(0, 1, ok=False), op(0, 3)])
        self.assertEqual(metrics.percentile(lat, 50), 5)
        self.assertTrue(math.isinf(metrics.percentile(lat, 90)))

    def test_failed_read_at_a_percentile_reads_as_the_window(self):
        window = {"start_ms": 0.0, "end_ms": 1000.0,
                  "ops": [op(0, 10), op(0, 20, ok=False)]}
        s = metrics.read_summary(window, 90)
        self.assertEqual(s["read_tail_ms"], 1000.0)
        self.assertEqual(s["qps"], 1.0)


class WindowDeltaTest(unittest.TestCase):
    def test_totals_subtract_and_gauges_keep_end_value(self):
        before = {"core.pins_total": 100.0, "storage.resident_bytes": 50.0}
        after = {"core.pins_total": 130.0, "storage.resident_bytes": 40.0, "net.retransmits": 7.0}
        d = metrics.window_delta(before, after)
        self.assertEqual(d["core.pins_total"], 30.0)
        self.assertEqual(d["storage.resident_bytes"], 40.0)
        self.assertEqual(d["net.retransmits"], 7.0)  # absent before: starts at 0


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        spans = [
            {"id": 1, "parent": 0, "name": "root", "start_ms": 0.0, "end_ms": 10.0},
            {"id": 2, "parent": 1, "name": "a", "start_ms": 1.0, "end_ms": 5.0},
            {"id": 3, "parent": 1, "name": "b", "start_ms": 3.0, "end_ms": 7.0},
            # Sticks out past its parent: only the covered part counts.
            {"id": 4, "parent": 1, "name": "c", "start_ms": 9.0, "end_ms": 12.0},
            {"id": 5, "parent": 2, "name": "d", "start_ms": 2.0, "end_ms": 4.0},
        ]
        self_ms = metrics.self_times(spans)
        self.assertAlmostEqual(self_ms["root"][0], 10.0 - 6.0 - 1.0)
        self.assertAlmostEqual(self_ms["a"][0], 4.0 - 2.0)
        self.assertAlmostEqual(self_ms["b"][0], 4.0)
        self.assertAlmostEqual(self_ms["c"][0], 3.0)

    def test_spans_split_by_operation_kind(self):
        spans = [
            {"id": 1, "parent": 0, "qid": 7, "name": "op.read", "start_ms": 0, "end_ms": 5},
            {"id": 2, "parent": 1, "qid": 7, "name": "runtime.exec", "start_ms": 1, "end_ms": 4},
            {"id": 3, "parent": 0, "qid": 8, "name": "op.write", "start_ms": 0, "end_ms": 2},
            {"id": 4, "parent": 3, "qid": 8, "name": "runtime.exec", "start_ms": 0, "end_ms": 1},
            {"id": 5, "parent": 0, "qid": 0, "name": "sql.compile", "start_ms": 0, "end_ms": 1},
        ]
        trees = metrics.spans_by_kind(spans)
        self.assertEqual([sp["id"] for sp in trees["read"]], [1, 2])
        self.assertEqual([sp["id"] for sp in trees["write"]], [3, 4])
        self.assertEqual([sp["id"] for sp in trees["side"]], [5])
        self.assertEqual(metrics.self_times(trees["read"])["op.read"], [2])

    def test_covered_length_of_disjoint_and_nested(self):
        self.assertEqual(metrics.covered_length([(0, 1), (2, 3), (2.5, 2.7)], 0, 10), 2)
        self.assertEqual(metrics.covered_length([], 0, 10), 0)


class OpenLoopLatencyTest(unittest.TestCase):
    def test_measured_from_due_time(self):
        late = op(start=130.0, end=140.0, due=100.0, kind="write")
        self.assertEqual(metrics.latency_ms(late), 40.0)
        self.assertEqual(metrics.lag_ms(late), 30.0)

    def test_early_start_has_no_lag_and_closed_loop_uses_start(self):
        self.assertEqual(metrics.lag_ms(op(start=99.9, end=101.0, due=100.0)), 0.0)
        self.assertEqual(metrics.latency_ms(op(start=5.0, end=8.0)), 3.0)


if __name__ == "__main__":
    unittest.main()
