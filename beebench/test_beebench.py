#!/usr/bin/env python3
"""Tests of the benchmark itself (not of beesim).

    python3 -m unittest discover -s beebench -p 'test_*.py'

Builds the harness through run.py if needed, then checks that the input
streams are a function of the seed alone and that a run reports exactly
the metrics BENCHMARK.json declares.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def digest(workload, seed):
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--work-dir", run.WORK, "--digest-only"],
        stdout=subprocess.PIPE, text=True, check=True)
    match = re.search(r"input digest \S+ seed \d+: ([0-9a-f]{16})",
                      out.stdout)
    assert match, out.stdout
    return match.group(1)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(run.WORK, exist_ok=True)

    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(digest(workload, 7), digest(workload, 7))

    def test_other_seed_other_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(digest(workload, 7), digest(workload, 8))

    def test_reports_the_declared_metrics(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                lines, result = run.run_workload("fleet-campaign", 3, 1,
                                                 trace)
                self.assertTrue(result["correct"], "\n".join(lines))
                self.assertEqual(sorted(result["metrics"]),
                                 sorted(run.expected_metrics(trace)))
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})

    def test_benchmark_json_shape(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         run.WORKLOADS)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
