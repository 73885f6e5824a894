#!/usr/bin/env python3
"""Self-tests of the benchmark's checks.

Each test feeds one check a known-bad answer through the benchmark's
--inject flag and asserts that the run fails; one clean run must pass.

    python3 perfbench/selftest.py
"""

import json
import pathlib
import subprocess
import sys
import unittest

RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def run(workload, inject=""):
    """Runs one short workload; returns (exit code, JSON result, stdout)."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seconds", "1"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=RUN.parent.parent, capture_output=True,
                          text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1]), proc.stdout


class CheckerSelfTest(unittest.TestCase):

    def assert_fails(self, workload, inject, message):
        code, result, out = run(workload, inject)
        self.assertNotEqual(code, 0, out)
        self.assertFalse(result["correct"], out)
        self.assertGreater(result["failed"], 0, out)
        self.assertIn(message, out)

    def test_clean_run_passes(self):
        code, result, out = run("server_mixed")
        self.assertEqual(result["failed"], 0, out)
        if "INVALID" not in out:  # A busy machine may stall the generator.
            self.assertEqual(code, 0, out)
            self.assertTrue(result["correct"], out)

    def test_diameter_one_ulp_inside_fails_server(self):
        self.assert_fails("server_mixed_diameter", "diameter_ulp",
                          "certified diameter on")

    def test_extent_one_ulp_inside_fails_server(self):
        self.assert_fails("server_mixed", "extent_ulp", "certified extent on")

    def test_diameter_one_ulp_inside_fails_fleet(self):
        self.assert_fails("fleet_tick", "diameter_ulp",
                          "diameter interval misses brute force")

    def test_lost_poll_events_fail(self):
        self.assert_fails("fleet_tick", "lost_events", "events leave")

    def test_ack_with_wrong_generation_fails(self):
        self.assert_fails("server_mixed", "ack_generation", "want ACK")

    def test_nak_fails(self):
        self.assert_fails("server_mixed", "nak", "got NAK")


if __name__ == "__main__":
    unittest.main()
