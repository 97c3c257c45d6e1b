#!/usr/bin/env python3
"""The benchmark's own tests, at the smoke size of each workload.

    python3 perfbench/test_perfbench.py

Builds through perfbench/run.py, then checks that every metric named in
BENCHMARK.json prints with its unit, that a wrong pinned digest counts
as a failed cell rather than a crash, and that the cached run_sweep
re-run computes no cell.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fanin_100k", "fanin_100k_sharded", "paper_grid"]


def bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace), "--smoke",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def assert_metrics(self, result, expected):
        want = {m["name"]: m["unit"] for m in expected}
        got = {n: v["unit"] for n, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)

    def test_every_metric_prints_with_its_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                plain = bench(w, 0)
                self.assertTrue(plain["correct"])
                self.assertGreaterEqual(plain["attempted"], 1)
                self.assertEqual(plain["failed"], 0)
                self.assert_metrics(plain, self.spec["end_to_end"])
                for m in self.spec["end_to_end"]:
                    self.assertGreater(plain["metrics"][m["name"]]["value"], 0)
                traced = bench(w, 1)
                self.assertTrue(traced["correct"])
                self.assert_metrics(traced, self.spec["per_layer"])

    def test_wrong_pinned_digest_is_a_failed_cell(self):
        for w in ["fanin_100k", "paper_grid"]:
            with self.subTest(workload=w):
                r = bench(w, 0, "--corrupt-pins")
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], r["attempted"])

    def test_cached_rerun_computes_no_cell(self):
        r = bench("paper_grid", 1)
        self.assertTrue(r["correct"])
        m = r["metrics"]
        self.assertEqual(m["sweep.cache_hit_ratio"]["value"], 1.0)
        self.assertEqual(m["sweep.objects"]["value"], m["scenario.cells"]["value"])


if __name__ == "__main__":
    unittest.main()
