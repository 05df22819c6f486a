#!/usr/bin/env python3
"""Tests of the benchmark's percentile, quartile and self-time code and
of the metric assembly in run.py.

    python3 -m unittest discover -s wsdbench -p 'test_*.py'
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_endpoints_and_median(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(stats.percentile(values, 0), 1)
        self.assertEqual(stats.percentile(values, 100), 5)
        self.assertEqual(stats.percentile(values, 50), 3)

    def test_interpolates_between_order_statistics(self):
        self.assertAlmostEqual(stats.percentile([10, 20], 25), 12.5)
        self.assertAlmostEqual(stats.percentile(list(range(1, 101)), 95),
                               95.05)

    def test_single_value(self):
        self.assertEqual(stats.percentile([7.5], 95), 7.5)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 101)

    def test_trimmed_mean(self):
        values = [100.0] + [float(i) for i in range(1, 9)] + [-50.0]
        self.assertAlmostEqual(stats.trimmed_mean(values, 0.1), 4.5)
        self.assertAlmostEqual(stats.trimmed_mean([1, 2, 6], 0.1), 3.0)
        self.assertAlmostEqual(stats.trimmed_mean([1, 2, 6, 100], 0.25), 4.0)
        with self.assertRaises(ValueError):
            stats.trimmed_mean([], 0.1)
        with self.assertRaises(ValueError):
            stats.trimmed_mean([1], 0.5)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(200, 95), 10)
        self.assertEqual(stats.samples_beyond(199, 95), 9)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.1, 9.4, 2.2, 5.0, 7.7, 1.0, 4.4, 8.8, 6.6, 0.5]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_relative_iqr(self):
        # quantiles([1..9], n=4) = 2.5, 5, 7.5
        self.assertAlmostEqual(stats.relative_iqr(range(1, 10)), 1.0)
        self.assertEqual(stats.relative_iqr([4.0] * 10), 0.0)

    def test_max_relative_deviation(self):
        self.assertAlmostEqual(
            stats.max_relative_deviation([9, 10, 10, 12]), 0.2)


def span(id, parent, start, end, name="s", request=1):
    return stats.Span(id, parent, request, name, start, end)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([span(1, 0, 10, 25)]), {1: 15})

    def test_children_are_subtracted(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 60),
                 span(4, 2, 12, 20)]
        own = stats.self_times(spans)
        self.assertEqual(own[1], 100 - 20 - 10)
        self.assertEqual(own[2], 20 - 8)
        self.assertEqual(own[3], 10)
        self.assertEqual(own[4], 8)

    def test_overlapping_children_counted_once(self):
        # Children recorded on other threads may overlap each other.
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 40, 70)]
        self.assertEqual(stats.self_times(spans)[1], 100 - 60)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 90, 130)]
        self.assertEqual(stats.self_times(spans)[1], 90)

    def test_by_name_and_parse(self):
        lines = ["1\t0\t7\tread\t0\t100\n", "2\t1\t7\tsql.parse\t0\t40\n",
                 "3\t1\t7\tsql.parse\t50\t60\n", "\n"]
        spans = stats.parse_spans(lines)
        self.assertEqual(stats.self_times_by_name(spans),
                         {"read": [50], "sql.parse": [40, 10]})
        with self.assertRaises(ValueError):
            stats.parse_spans(["1\t2\t3\n"])


def raw_result(reads, writes):
    return {
        "samples": {"read_ms": reads, "write_ms": writes,
                    "recover_s": [0.2, 0.1, 0.6], "setup_s": [2.0, 1.0, 3.0],
                    "untraced_read_ms": [1.0] * len(reads),
                    "server_wait_ms": [0.5]},
        "scalars": {"throughput_sps": 100.0, "peak_rss_mb": 50.0,
                    "space_ratio": 1.02, "cpu_util": 0.9},
        "layer": {"storage.env.fsyncs_per_write": 1.0},
        "config": {"setup_reps": "1"},
    }


class MetricAssemblyTest(unittest.TestCase):
    def test_every_end_to_end_metric_is_emitted(self):
        reads = [float(i) for i in range(1, 201)]
        metrics = run.end_to_end(raw_result(reads, [1, 2, 3, 4, 5]))
        self.assertEqual(list(metrics), [n for n, _ in run.END_TO_END])
        self.assertEqual(metrics["read_p50_ms"][0], 100.5)
        self.assertEqual(metrics["write_p50_ms"][0], 3)
        self.assertAlmostEqual(metrics["recover_s"][0], 0.3)
        self.assertEqual(metrics["setup_s"][0], 2.0)

    def test_too_few_reads_for_p95_fails_loudly(self):
        with self.assertRaises(run.MetricError):
            run.end_to_end(raw_result([1.0] * 199, [1, 2, 3, 4, 5]))

    def test_every_per_layer_metric_is_emitted(self):
        raw = raw_result([2.0] * 10, [1, 2, 3, 4, 5])
        spans = [span(1, 0, 0, 2_000_000, "request"),
                 span(2, 1, 0, 1_000_000, "core.lifted.execute")]
        metrics = run.per_layer(raw, spans)
        self.assertEqual(list(metrics), [n for n, _, _ in run.PER_LAYER])
        self.assertEqual(metrics["core.lifted.execute_ms"][0], 1.0)
        self.assertEqual(metrics["core.mapped.materialize_ms"][0], 0.0)
        self.assertEqual(metrics["storage.env.fsyncs_per_write"][0], 1.0)
        self.assertEqual(metrics["trace.overhead_pct"][0], 100.0)


if __name__ == "__main__":
    unittest.main()
