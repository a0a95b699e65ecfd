#!/usr/bin/env python3
"""Self-tests of the repository benchmark, at a tiny scale.

    python3 nomadbench/test_bench.py      # from the root of a checkout

They build the program through run.py exactly as a benchmark run does, so
the first test to run pays for the build.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace=0, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "3", "--trace", str(trace),
           "--scale", "0.2"] + list(extra)
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = r.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return r, result


class TinyRuns(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    r, result = run(w["name"], trace)
                    self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[group]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    # The human-readable report names every metric too.
                    for name in want:
                        self.assertIn(name, r.stdout)

    def test_corrupted_model_trips_the_parity_gate(self):
        r, result = run("serve_live", 0, "--corrupt-model")
        self.assertNotEqual(r.returncode, 0)
        self.assertIsNotNone(result, r.stdout + r.stderr)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("parity", r.stdout)

    def test_unreachable_rmse_ceiling_trips_the_training_gate(self):
        r, result = run("mf_dense", 0, "--rmse-ceiling-frac", "0.01")
        self.assertNotEqual(r.returncode, 0)
        self.assertIsNotNone(result, r.stdout + r.stderr)
        self.assertFalse(result["correct"])
        self.assertIn("ceiling", r.stdout)


if __name__ == "__main__":
    unittest.main()
