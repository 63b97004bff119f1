#!/usr/bin/env python3
"""Tests of the coopfs benchmark itself, at tiny input sizes.

    python3 coopbench/test_coopbench.py

Builds the benchmark through run.py (as the real runs do), then checks that
a tiny run of each workload prints every metric named in BENCHMARK.json
with its unit, and that each output check fails when it is fed a
deliberately inconsistent result.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["replay_sprite", "serve_sprite", "serve_spill"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, corrupt=""):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    if corrupt:
        command += ["--corrupt", corrupt]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError("exit %d: %s" % (done.returncode, done.stderr[-3000:]))
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1], done.stderr


class MetricsTest(unittest.TestCase):
    def check_metrics(self, workload, trace, spec_key):
        result, lines, _ = run(workload, trace)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        self.assertEqual(set(result["metrics"]), set(expected))
        printed = {}
        for line in lines:
            match = re.match(r"metric (\S+) = (\S+) (\S+)$", line)
            if match:
                printed[match.group(1)] = match.group(3)
        for name, unit in expected.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            self.assertIsInstance(result["metrics"][name]["value"], (int, float), name)
            self.assertEqual(printed.get(name), unit, name)
        return result

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_metrics(workload, 0, "end_to_end")
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][metric["name"]]["value"], 0,
                                       metric["name"])

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_metrics(workload, 1, "per_layer")


class OutputCheckTest(unittest.TestCase):
    """Each output check must fail on a deliberately inconsistent result."""

    CASES = [
        ("replay_sprite", 0, "consistency"),
        ("replay_sprite", 0, "level_sum"),
        ("replay_sprite", 0, "metrics_doc"),
        ("replay_sprite", 0, "driver_counts"),
        ("replay_sprite", 0, "run"),
        ("serve_sprite", 0, "consistency"),
        ("serve_spill", 0, "level_sum"),
        ("serve_spill", 1, "driver_counts"),
        ("serve_sprite", 1, "harness"),
    ]

    def test_checks_fail_on_corrupted_results(self):
        for workload, trace, check in self.CASES:
            with self.subTest(workload=workload, trace=trace, check=check):
                result, _, stderr = run(workload, trace, corrupt=check)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("CHECK FAILED [%s]" % check, stderr)


if __name__ == "__main__":
    unittest.main()
