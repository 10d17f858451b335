#!/usr/bin/env python3
"""Unit tests for check_isolation.py (the server-smoke isolation gate).

Runs the gate as a subprocess against synthetic loadgen reports in a temp
directory and asserts on exit code + output: the ratio limit in both
directions, and unreadable or incomplete reports.

Registered in ctest as `check_isolation_test` (tier1); also runnable
directly: python3 tools/check_isolation_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_isolation.py")


class IsolationGate(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def report(self, name, values):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"bench": "server_loadgen", "schema_version": 1,
                       "timings": {}, "values": values}, f)
        return path

    def run_gate(self, alone, loaded):
        proc = subprocess.run(
            [sys.executable, GATE, "--alone", alone, "--loaded", loaded],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout + proc.stderr

    def test_within_ratio_passes(self):
        code, out = self.run_gate(self.report("a.json", {"alpha/p99_ms": 12}),
                                  self.report("b.json", {"alpha/p99_ms": 15}))
        self.assertEqual(code, 0, out)
        self.assertIn("PASS", out)

    def test_exactly_at_limit_passes(self):
        code, out = self.run_gate(self.report("a.json", {"alpha/p99_ms": 10}),
                                  self.report("b.json", {"alpha/p99_ms": 20}))
        self.assertEqual(code, 0, out)

    def test_over_ratio_fails(self):
        code, out = self.run_gate(self.report("a.json", {"alpha/p99_ms": 10}),
                                  self.report("b.json", {"alpha/p99_ms": 28}))
        self.assertEqual(code, 1, out)
        self.assertIn("2.80x", out)

    def test_missing_value_fails(self):
        code, out = self.run_gate(self.report("a.json", {"alpha/p99_ms": 10}),
                                  self.report("b.json", {"beta/p99_ms": 10}))
        self.assertEqual(code, 1, out)
        self.assertIn("missing or not a number", out)

    def test_zero_alone_fails(self):
        code, out = self.run_gate(self.report("a.json", {"alpha/p99_ms": 0}),
                                  self.report("b.json", {"alpha/p99_ms": 10}))
        self.assertEqual(code, 1, out)
        self.assertIn("no ratio", out)

    def test_unreadable_report_fails(self):
        bad = os.path.join(self.tmp.name, "bad.json")
        with open(bad, "w", encoding="utf-8") as f:
            f.write("{not json")
        code, out = self.run_gate(bad,
                                  self.report("b.json", {"alpha/p99_ms": 10}))
        self.assertEqual(code, 1, out)
        self.assertIn("not valid JSON", out)
        code, out = self.run_gate(os.path.join(self.tmp.name, "absent.json"),
                                  self.report("c.json", {"alpha/p99_ms": 10}))
        self.assertEqual(code, 1, out)
        self.assertIn("cannot read", out)


if __name__ == "__main__":
    unittest.main()
