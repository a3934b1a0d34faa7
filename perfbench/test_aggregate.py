#!/usr/bin/env python3
"""Self-test of the benchmark's own math and metric contract.

    python3 perfbench/test_aggregate.py

Checks the percentile, tail, ratio, overhead and binomial arithmetic of
aggregate.py against hand-worked cases and brute force, and that run.py
reports exactly the metrics, with exactly the units, that BENCHMARK.json
declares. Needs no build.
"""

import collections
import json
import math
import unittest
from pathlib import Path

import aggregate as agg
import run

# A gauge reading at which scaled() halves a time.
SLOW = agg.GAUGE_REF_S * 2 ** (1 / agg.GAUGE_EXPONENT)

CONTRACT = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class Percentiles(unittest.TestCase):
    def test_median_odd_even(self):
        self.assertEqual(agg.median([3, 1, 2]), 2)
        self.assertEqual(agg.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            agg.median([])

    def test_nearest_rank(self):
        v = list(range(1, 101))  # 1..100
        self.assertEqual(agg.percentile(v, 50), 50)
        self.assertEqual(agg.percentile(v, 99), 99)
        self.assertEqual(agg.percentile(v, 100), 100)
        self.assertEqual(agg.percentile(v, 0.1), 1)
        self.assertEqual(agg.percentile([7], 99.9), 7)

    def test_tail_keeps_ten_samples_beyond(self):
        # 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        p, value, beyond = agg.tail(range(1000))
        self.assertEqual((p, value, beyond), (99.0, 989, 10))
        # 999 samples: p99 would leave 9, so p95 (49 beyond) is the tail.
        p, _, beyond = agg.tail(range(999))
        self.assertEqual((p, beyond), (95.0, 49))
        # 90 samples: p90 would leave 9, p75 leaves 22.
        p, value, beyond = agg.tail(range(90))
        self.assertEqual((p, value, beyond), (75.0, 67, 22))

    def test_tail_falls_back_to_median(self):
        p, value, beyond = agg.tail([5, 1, 3])
        self.assertEqual((p, value, beyond), (50.0, 3, 1))
        p, _, beyond = agg.tail(range(39))
        self.assertEqual((p, beyond), (50.0, 19))

    def test_tail_order_free(self):
        self.assertEqual(agg.tail([9, 1, 5] * 400), agg.tail([1, 5, 9] * 400))

    def test_iqm(self):
        self.assertEqual(agg.iqm([7]), 7)
        self.assertEqual(agg.iqm([1, 2, 3]), 2)
        self.assertEqual(agg.iqm([100, 1, 2, 3, 4]), 3)  # drops 1 and 100
        self.assertEqual(agg.iqm([0, 0, 5, 6, 7, 8, 9, 99, 99]), 7)
        with self.assertRaises(ValueError):
            agg.iqm([])

    def test_scaled(self):
        ref = agg.GAUGE_REF_S
        self.assertEqual(agg.scaled(3.0, ref), 3.0)
        self.assertAlmostEqual(agg.scaled(3.0, SLOW), 1.5)
        self.assertAlmostEqual(agg.scaled(3.0, 2 * ref),
                               3.0 / 2 ** agg.GAUGE_EXPONENT)
        with self.assertRaises(ValueError):
            agg.scaled(1.0, 0.0)

    def test_run_time(self):
        ref = agg.GAUGE_REF_S
        # Pass 0: worlds scale to 1, 2, 30 and 3; the interquartile mean
        # drops 1 and 30 and reads 2.5. Pass 1: 3, 4, 5, 4, mean 4. Pass
        # 2 ran on a slow host that halves its times: 3. Median 3.
        passes = [[(1, ref), (4, SLOW), (30, ref), (3, ref)],
                  [(3, ref), (4, ref), (5, ref), (4, ref)],
                  [(6, SLOW)] * 4]
        self.assertAlmostEqual(agg.run_time(passes), 3)


class Ratios(unittest.TestCase):
    def test_ratio_and_base(self):
        self.assertEqual(agg.ratio(1, 4), 0.25)
        self.assertEqual(agg.ratio(3, 0), 0.0)
        self.assertEqual(agg.with_base(199, 14333), "0.013884 (199/14333)")
        self.assertEqual(agg.with_base(0, 0), "0 (0/0)")
        self.assertEqual(agg.with_base(1.5, 3), "0.5 (1.5/3)")

    def test_overhead(self):
        self.assertAlmostEqual(agg.overhead(1.1, 1.0), 0.1)
        self.assertAlmostEqual(agg.overhead(0.9, 1.0), -0.1)
        with self.assertRaises(ValueError):
            agg.overhead(1.0, 0.0)


class Binomial(unittest.TestCase):
    def brute(self, k, n, p):
        return sum(math.comb(n, i) * p ** i * (1 - p) ** (n - i)
                   for i in range(k + 1))

    def test_cdf_matches_brute_force(self):
        for n, p in ((10, 0.3), (50, 0.96), (200, 0.5)):
            for k in (0, 1, n // 3, n // 2, n - 2, n):
                self.assertAlmostEqual(agg.binomial_cdf(k, n, p),
                                       self.brute(k, n, p), places=12)

    def test_cdf_edges(self):
        self.assertEqual(agg.binomial_cdf(-1, 10, 0.5), 0.0)
        self.assertEqual(agg.binomial_cdf(10, 10, 0.5), 1.0)
        self.assertEqual(agg.binomial_cdf(3, 10, 0.0), 1.0)
        self.assertEqual(agg.binomial_cdf(3, 10, 1.0), 0.0)

    def test_floor_acceptance(self):
        # 950/1000 at a 0.95 floor is typical; 900/1000 is ~1e-12 likely.
        self.assertTrue(agg.meets_floor(950, 1000, 0.95))
        self.assertTrue(agg.meets_floor(940, 1000, 0.95))
        self.assertFalse(agg.meets_floor(900, 1000, 0.95))


def fake_output(traced):
    """A minimal driver output with every field run.py reads."""
    ref = agg.GAUGE_REF_S
    counts = collections.defaultdict(lambda: 3)
    det = collections.defaultdict(lambda: 2, {
        "kernel": counts, "trial_ops": [10, 12], "trial_msgs": [30, 60],
        "read_ns": [1000, 2000, 3000], "write_ns": [5000],
        "checks": {"ok": True}, "failures": [], "wrong": 0})
    out = {"trials": 2, "nodes": 100, "peak_rss_bytes": 1 << 24,
           "passes": [{"traced": False, "setup_s": [0.1, 0.2],
                       "run_s": [1.0, 2.0], "gauge_s": [ref, ref],
                       "fingerprint": "x"},
                      {"traced": traced, "setup_s": [0.1, 0.3],
                       "run_s": [2.0, 3.5], "gauge_s": [ref, SLOW],
                       "fingerprint": "x"}],
           "det": det}
    if traced:
        out["layers"] = collections.defaultdict(lambda: 1.0, {
            "by_kind": counts, "first_reply_ns": [10, 20, 30],
            "dropped": 0})
    return out


class Contract(unittest.TestCase):
    def declared(self, section):
        return [(m["name"], m["unit"]) for m in CONTRACT[section]]

    def reported(self, fn, traced):
        rep = run.Report()
        fn(fake_output(traced), rep)
        return [(name, m["unit"]) for name, m in rep.metrics.items()]

    def test_end_to_end_metrics_match_contract(self):
        self.assertEqual(self.reported(run.end_to_end, False),
                         self.declared("end_to_end"))

    def test_per_layer_metrics_match_contract(self):
        self.assertEqual(self.reported(run.per_layer, True),
                         self.declared("per_layer"))

    def test_end_to_end_values(self):
        rep = run.Report()
        run.end_to_end(fake_output(False), rep)
        m = {k: v["value"] for k, v in rep.metrics.items()}
        # Scaled set-ups 0.1, 0.2, 0.1 and 0.15; scaled passes: worlds
        # (1.0, 2.0), mean 1.5, and (2.0, 1.75), mean 1.875.
        self.assertAlmostEqual(m["setup_s"], 0.125)
        self.assertAlmostEqual(m["run_s"], 1.6875)
        self.assertEqual(m["peak_rss_mib"], 16.0)
        self.assertEqual(m["msgs_per_op"], 4.0)  # worlds 3.0 and 5.0
        self.assertAlmostEqual(m["read_p50_s"], 2e-6, places=15)
        self.assertAlmostEqual(m["write_tail_s"], 5e-6, places=15)
        self.assertEqual(m["op_ok_rate"], 0.0)  # 6 ops, all 6 failed

    def test_overhead_from_pass_sums(self):
        rep = run.Report()
        run.per_layer(fake_output(True), rep)
        # Scaled, the traced pass sums to 3.75 s, the untraced to 3.0 s.
        self.assertAlmostEqual(rep.metrics["trace.overhead"]["value"], 0.25)

    def test_workloads_match_contract(self):
        self.assertEqual(tuple(w["name"] for w in CONTRACT["workloads"]),
                         run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
