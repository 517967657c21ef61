#!/usr/bin/env python3
"""Checks trace_agg.py against a hand-built trace with known self times.

fixtures/trace_fixture.json holds two serving steps on the driving
thread (tid 1) and attend kernels on a pool worker (tid 2), written in
end order as the runtime's trace writer emits them. Every expected
value below is worked out by hand from the fixture's intervals (in
microseconds).

Run: python3 servebench/test_trace_agg.py
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import trace_agg  # noqa: E402

FIXTURE = os.path.join(HERE, "fixtures", "trace_fixture.json")
META = {
    "bits_per_element": 4.5,
    "kv_dim": 192,
    "max_batch": 4,
    "ttft_tail_pct": 95,
    "itl_tail_pct": 99,
    "machine.triad_gbps": 10.0,
    "machine.fma_gflops": 100.0,
}
US = 1e-6
STEP_US = 980 + 490


class SelfTimeTest(unittest.TestCase):
    def setUp(self):
        self.spans = trace_agg.nest(trace_agg.load_spans(FIXTURE))

    def test_self_time_per_span_name(self):
        table = trace_agg.self_time_table(self.spans)
        want_self_us = {
            "bench.submit": 5,
            "bench.step": 20 + 10,
            "serving.step": 260 + 110,
            "serving.prefill": 70 + 40,
            "linear.forward": 6 + 4,
            "linear.quantize": 28 + 18 + 20,
            "linear.gemm": 6 + 2 + 2,
            "gemm.packed": 4 + 186 + 168,
            "pool.run": 86 + 15 + 198,
            "decode.attend": 5 + 2 + 150,
            "decode.attend.flash": 80 + 90 + 100,
            "decode.attend.seq": 10,
            "bench.token": 10,
        }
        self.assertEqual(set(table), set(want_self_us))
        for name, want in want_self_us.items():
            self.assertEqual(table[name][2], want * 1000, name)
        self.assertEqual(table["pool.run"][0], 3)

    def test_self_times_sum_to_root_durations(self):
        # Per thread, self times partition the union of root spans.
        main = [s for s in self.spans if s.tid == 1]
        self.assertEqual(sum(s.self_ns for s in main),
                         (5 + 1000 + 500) * 1000)

    def test_step_shares_account_for_step_time(self):
        m = trace_agg.layer_metrics(self.spans, META)
        self.assertAlmostEqual(m["linear.quantize_share"][0],
                               66 / STEP_US)
        self.assertAlmostEqual(m["gemm.share"][0], 454 / STEP_US)
        self.assertAlmostEqual(m["attend.share"][0], 450 / STEP_US)
        self.assertAlmostEqual(m["model.other_share"][0],
                               500 / STEP_US)
        total = sum(m[k][0] for k in (
            "linear.quantize_share", "gemm.share", "attend.share",
            "model.other_share"))
        self.assertAlmostEqual(total, 1.0)


class LayerMetricsTest(unittest.TestCase):
    def setUp(self):
        self.m = trace_agg.aggregate(FIXTURE, META)

    def value(self, name):
        return self.m[name][0]

    def test_serving(self):
        # Two steps (490 and 980 us): the median is their mean, the
        # p99 tail interpolates 99% of the way up.
        self.assertAlmostEqual(self.value("serving.step_p50_s"), 735 * US)
        self.assertAlmostEqual(self.value("serving.step_tail_s"),
                               (490 + 0.99 * 490) * US)
        self.assertAlmostEqual(self.value("serving.queue_wait_p50_s"),
                               15 * US)
        self.assertAlmostEqual(self.value("serving.batch_mean"), 2.0)
        self.assertAlmostEqual(self.value("serving.recompute_frac"),
                               16 / 80)
        self.assertEqual(self.value("serving.admit_stall_steps"), 1)

    def test_linear_and_gemm(self):
        self.assertAlmostEqual(self.value("linear.quantize_p50_s"),
                               20 * US)
        self.assertEqual(self.value("linear.quantize_calls"), 3)
        self.assertEqual(self.value("gemm.calls"), 3)
        small_flops = 2 * 2 * 2 * 192 * 192
        large_flops = 2 * 64 * 192 * 192
        self.assertAlmostEqual(self.value("gemm.small_m_gflops"),
                               small_flops / ((186 + 168) * 1000))
        self.assertAlmostEqual(self.value("gemm.large_m_gflops"),
                               large_flops / (90 * 1000))
        bytes_large = (64 * 192 + 192 * 192) * 0.5625 + 4 * 64 * 192
        bytes_small = (2 * 192 + 192 * 192) * 0.5625 + 4 * 2 * 192
        self.assertAlmostEqual(self.value("gemm.bytes_per_call"),
                               (bytes_large + 2 * bytes_small) / 3)
        # Compute-bound here: the FMA ceiling (100) is the bound.
        rate = (small_flops + large_flops) / (444 * 1000)
        self.assertAlmostEqual(self.value("gemm.roofline_frac"),
                               rate / 100.0)

    def test_attend(self):
        self.assertAlmostEqual(self.value("attend.p50_s"), 150 * US)
        self.assertAlmostEqual(self.value("attend.context_rows_mean"),
                               65.0)
        gbps = (64 + 65 + 66) * 192 * 2 * 0.5625 / (450 * 1000)
        self.assertAlmostEqual(self.value("attend.gbps"), gbps)
        self.assertAlmostEqual(self.value("attend.roofline_frac"),
                               gbps / 10.0)

    def test_pool(self):
        self.assertEqual(self.value("pool.run_calls"), 3)
        self.assertAlmostEqual(self.value("pool.run_p50_s"), 95 * US)


if __name__ == "__main__":
    unittest.main()
