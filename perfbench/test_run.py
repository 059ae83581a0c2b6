#!/usr/bin/env python3
"""The benchmark's own test: runs a tiny size of every workload end to end
through run.py, untraced and traced, and checks the result line against
BENCHMARK.json; then checks that the output check rejects a routed circuit
with one gate dropped.

    python3 perfbench/test_run.py        (from the repository root)

The two runs of each workload share a seed, so run.py's exact-count check
also asserts that the counts both runs report repeat exactly.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_bench(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


class PerfbenchTest(unittest.TestCase):
    def test_every_metric_is_reported_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench("--workload", workload, "--seed", "3",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--tiny")
                    self.assertEqual(proc.returncode, 0,
                                     proc.stdout + proc.stderr)
                    out = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(out), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(out["failed"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in out["metrics"].items()},
                        {m["name"]: m["unit"] for m in spec[group]})

    def test_dropped_gate_fails_the_output_check(self):
        proc = run_bench("--selftest")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("corrupted routed circuit caught", proc.stdout)


if __name__ == "__main__":
    unittest.main()
