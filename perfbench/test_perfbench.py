#!/usr/bin/env python3
"""Tests of the benchmark itself, on the tiny smoke-size workloads.

  python3 perfbench/test_perfbench.py

Checks that every workload passes the correctness gate and reports exactly
the metrics BENCHMARK.json declares, in both trace modes (the traced mode
also proves traced == untraced bitwise), and that the gate fails the run
when a check cannot hold.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--smoke",
       "--seconds", "1"]
WORKLOADS = ["cnn_honest", "mlp_byz90", "rescnn_sampled"]


def smoke(*extra):
    proc = subprocess.run(RUN + list(extra), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT,
                          timeout=900, check=False)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


class SmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check_passes(self, trace, section):
        code, result = smoke("--trace", str(trace))
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        expected = {w + "." + m["name"]: m["unit"]
                    for w in WORKLOADS for m in self.bench[section]}
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(reported, expected)

    def test_end_to_end_metrics_pass_the_gate(self):
        self.check_passes(0, "end_to_end")

    def test_traced_run_matches_untraced_and_reports_layers(self):
        self.check_passes(1, "per_layer")

    def test_gate_rejects_an_unreachable_accuracy_floor(self):
        code, result = smoke("--trace", "0", "--min_accuracy", "1.01")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
