"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import stats


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        # 999 samples leave only 9 beyond p99, so the tail drops to p95
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))

    def test_beyond_counts_samples_above_the_nearest_rank(self):
        self.assertEqual(stats.beyond(1000, 99.0), 10)
        self.assertEqual(stats.beyond(100, 50.0), 50)

    def test_summary_reports_median_tail_and_count(self):
        xs = list(range(1, 1001))
        p50, tail, p, n = stats.summary(xs)
        self.assertEqual((p50, tail, p, n), (500.5, 990, 99.0, 1000))
        # too few samples for any tail: the maximum, with no percentile
        self.assertEqual(stats.summary([3, 1, 2]), (2, 3, None, 3))


class FailedOperations(unittest.TestCase):
    def test_a_fast_failure_cannot_lower_the_median_or_the_tail(self):
        ok = [stats.charged_latency(x, False) for x in (4.0, 5.0, 6.0)]
        # an error line that came back at once instead of the 6.0 success
        shed = ok[:2] + [stats.charged_latency(0.001, True)]
        self.assertEqual(stats.charged_latency(0.001, True), math.inf)
        self.assertGreaterEqual(stats.summary(shed)[0], stats.summary(ok)[0])
        self.assertEqual(stats.summary(shed)[1], math.inf)
        # half failed: the median itself is undefined (infinite)
        self.assertEqual(stats.summary(ok[:1] + shed[2:])[0], math.inf)


class SelfTimes(unittest.TestCase):
    def test_self_time_is_span_minus_children(self):
        spans = [
            ("r1", "client", "-", 0.0, 10.0),
            ("r1", "handle_line", "client", 1.0, 8.0),
            ("r1", "pool", "handle_line", 2.0, 7.0),
            ("r1", "eval", "pool", 3.0, 5.0),
            ("r1", "selectivity", "pool", 5.0, 6.0),
        ]
        own = stats.self_times(spans)
        self.assertEqual(own[("r1", "client")], 3.0)
        self.assertEqual(own[("r1", "handle_line")], 2.0)
        self.assertEqual(own[("r1", "pool")], 2.0)
        self.assertEqual(own[("r1", "eval")], 2.0)
        # the self times of one request add up to its outermost span
        self.assertEqual(sum(own.values()), 10.0)

    def test_children_of_other_requests_do_not_count(self):
        spans = [
            ("r1", "client", "-", 0.0, 4.0),
            ("r2", "client", "-", 0.0, 4.0),
            ("r2", "handle_line", "client", 0.0, 3.0),
        ]
        own = stats.self_times(spans)
        self.assertEqual(own[("r1", "client")], 4.0)
        self.assertEqual(own[("r2", "client")], 1.0)

    def test_calls_replayed_one_after_another_subtract_by_duration(self):
        # the probe calls each boundary in turn: children need not nest
        spans = [("r", "client", "-", 0.0, 5.0), ("r", "handle_line", "client", 6.0, 9.0)]
        self.assertEqual(stats.self_times(spans)[("r", "client")], 2.0)


class Throughput(unittest.TestCase):
    def test_median_rate_over_whole_windows(self):
        # 100 completions a second for 5 s, then 0.5 s of a partial window
        dones = [10.0 + i / 100 for i in range(1, 551)]
        self.assertEqual(stats.median_rate(10.0, dones), 100.0)
        self.assertEqual(stats.median_rate(10.0, dones, window=0.5), 100.0)

    def test_a_stall_moves_one_window_not_the_figure(self):
        dones = [i / 100 for i in range(1, 501) if not 200 <= i < 300]
        self.assertEqual(stats.median_rate(0.0, dones), 100.0)
        self.assertLess(len(dones) / 5.0, 100.0)

    def test_shorter_than_one_window_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median_rate(0.0, [0.5])


class Breakdown(unittest.TestCase):
    def test_a_breakdown_that_holds(self):
        parts = {"socket": 30e-6, "dispatch": 30e-6, "eval": 240e-6}
        self.assertEqual(stats.breakdown_problems(parts, 310e-6, 0.25, 0.05), [])

    def test_a_negative_layer_fails_even_when_the_sum_matches(self):
        # in-process handle_line cost more than the socket round trip:
        # the layers still add up to the outer span, by construction
        parts = {"socket": -40e-6, "dispatch": 100e-6, "eval": 240e-6}
        problems = stats.breakdown_problems(parts, 300e-6, 0.25, 0.05)
        self.assertEqual(len(problems), 1)
        self.assertIn("socket", problems[0])
        # a small negative within the slack is measurement noise
        parts["socket"] = -10e-6
        self.assertEqual(stats.breakdown_problems(parts, 330e-6, 0.25, 0.05), [])

    def test_a_sum_off_the_untraced_mean_fails(self):
        parts = {"socket": 30e-6, "eval": 270e-6}
        self.assertEqual(len(stats.breakdown_problems(parts, 200e-6, 0.25, 0.05)), 1)
        self.assertEqual(stats.breakdown_problems(parts, 250e-6, 0.25, 0.05), [])


class SelErr(unittest.TestCase):
    def test_mean_relative_error(self):
        # sanity bound: 10-percentile of the actuals (0) raised to 1
        pairs = [(100.0, 90.0), (1.0, 3.0), (0.0, 0.0)]
        self.assertAlmostEqual(stats.sel_err(pairs), (0.1 + 2.0 + 0.0) / 3)

    def test_sanity_bound_damps_tiny_true_counts(self):
        # s = the 10-percentile of the actuals: rank 2 of 20, i.e. 50
        pairs = [(1.0, 0.0)] + [(50.0, 50.0)] * 19
        self.assertEqual(stats.sanity_bound([a for a, _ in pairs]), 50.0)
        # the miss costs |1 - 0| / 50, not |1 - 0| / 1
        self.assertAlmostEqual(stats.sel_err(pairs), (1.0 / 50) / 20)
        self.assertEqual(stats.sanity_bound([0.0, 0.5]), 1.0)

    def test_no_pairs_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.sel_err([])


if __name__ == "__main__":
    unittest.main()
