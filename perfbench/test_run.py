"""Checks of the runner that need no build: metric tables, gates, medians.

    python3 perfbench/test_run.py
"""

import json
import os
import unittest

import run

ROOT = os.path.dirname(run.HERE)


def record(traced, **over):
    r = {
        "workload": "geo12", "seed": 1, "traced": traced, "shards": 1, "resolved_shards": 1,
        "order_s": [0.001, 0.002], "build_s": [0.01, 0.02], "setup_calibration_s": [0.026, 0.026],
        "run_s": 2.0, "cpu_s": 1.9,
        "sent": 100, "sim_s": 10.0, "issued": 50, "completed": 50, "events": 1000,
        "lat_samples": 2000, "lat_p999_ms": 90.0, "check_ok": True, "lockstep_ok": True,
        "peak_rss_mb": 60.0, "calibration_s": [0.3, 0.3],
        "end_to_end": {"lat_p50_ms": 30.0, "lat_p99_ms": 80.0},
        "per_layer": {},
    }
    if traced:
        r["end_to_end"].update({"txn_per_sim_s": 5.0, "bytes_per_txn": 900.0})
        r["per_layer"] = {name: 1.0 for name in run.PER_LAYER if name != "trace.overhead_s"}
        r["run_s"] = 2.5
    r.update(over)
    return r


class TablesMatchBenchmarkJson(unittest.TestCase):
    def test_names_units_and_directions(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


class Gates(unittest.TestCase):
    def test_clean_runs_pass(self):
        self.assertEqual(run.gates([record(False), record(True), record(False)]), [])

    def test_traced_run_must_reproduce_the_untraced_one(self):
        errors = run.gates([record(False), record(True, events=1001)])
        self.assertTrue(any("events" in e for e in errors), errors)
        other_world = record(False, seed=2, events=1001)
        self.assertEqual(run.gates([record(False), other_world, record(True)]), [])

    def test_latency_must_match_exactly(self):
        bad = record(True)
        bad["end_to_end"]["lat_p99_ms"] = 80.000001
        self.assertTrue(run.gates([record(False), bad]))

    def test_checker_and_lockstep_failures_are_caught(self):
        self.assertTrue(run.gates([record(False, check_ok=False), record(True)]))
        self.assertTrue(run.gates([record(False), record(True, lockstep_ok=False)]))

    def test_too_few_samples_for_p99(self):
        self.assertTrue(run.gates([record(False, lat_samples=500), record(True, lat_samples=500)]))


class Plan(unittest.TestCase):
    def test_one_seed_and_time_always_give_the_same_worlds(self):
        for w in run.WORKLOADS:
            for trace in (0, 1):
                self.assertEqual(run.plan(trace, 30, w), run.plan(trace, 30, w))
        p = run.plan(0, 30, "geo12")
        self.assertEqual(p.count((0, True)), 1)
        self.assertGreater(len(p), 2)

    def test_world_seeds_are_distinct(self):
        seeds = {run.world_seed(s, w) for s in range(50) for w in range(20)}
        self.assertEqual(len(seeds), 1000)


class Aggregation(unittest.TestCase):
    def test_end_to_end_takes_medians_of_untraced_runs(self):
        runs = [record(False), record(True)] + [
            record(False, peak_rss_mb=v) for v in (50.0, 70.0)]
        m = run.metrics(0, runs)
        self.assertEqual(set(m), set(run.END_TO_END))
        self.assertEqual(m["peak_rss_mb"]["value"], 60.0)
        self.assertEqual(m["bytes_per_txn"], {"value": 900.0, "unit": "B"})
        # Host times are halved: both calibrations ran at half the reference speed.
        self.assertAlmostEqual(m["setup_s"]["value"], 0.0165 * 0.5)
        self.assertAlmostEqual(m["host_s_per_sim_s"]["value"], 1.9 * 0.5 / 10.0)
        self.assertAlmostEqual(m["txns_per_host_s"]["value"], 50 / (1.9 * 0.5))

    def test_per_layer_reports_tracing_overhead(self):
        m = run.metrics(1, [record(False), record(True)])
        self.assertEqual(set(m), set(run.PER_LAYER))
        self.assertAlmostEqual(m["trace.overhead_s"]["value"], 0.5)


if __name__ == "__main__":
    unittest.main()
