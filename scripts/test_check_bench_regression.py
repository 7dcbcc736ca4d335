#!/usr/bin/env python3
"""Self-test of the bench regression gate (check_bench_regression.py).

Runs the gate as CI does, on small synthetic bench files, and checks its
exit codes: 0 pass, 1 regression, 2 malformed input. Also loads every
checked-in BENCH_*.json baseline through the gate's loader.

Usage: python3 scripts/test_check_bench_regression.py  (ctest runs it)
"""

import glob
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPTS = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(SCRIPTS)
GATE = os.path.join(SCRIPTS, "check_bench_regression.py")
sys.path.insert(0, SCRIPTS)
sys.dont_write_bytecode = True  # keep the source tree clean
import check_bench_regression  # noqa: E402


def bench(speedup=2.0, threads=1, extra_record=True):
    results = [{"key": {"kernel": "conv", "density": 0.01},
                "metrics": {"speedup": speedup}, "ref_ms": 3.0}]
    if extra_record:
        results.append({"key": {"network": "DOTIE", "streams": 4},
                        "metrics": {"speedup_serve": 1.5,
                                    "ontime_ratio": 1.0}})
    return {"threads": threads, "scale": "test", "results": results}


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, content):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            f.write(content if isinstance(content, str)
                    else json.dumps(content))
        return path

    def gate(self, base, fresh, *args):
        proc = subprocess.run(
            [sys.executable, GATE, self.write("base.json", base),
             self.write("fresh.json", fresh), *args],
            capture_output=True, text=True)
        return proc.returncode

    def test_identical_files_pass(self):
        self.assertEqual(self.gate(bench(), bench()), 0)

    def test_key_order_does_not_matter(self):
        fresh = bench()
        fresh["results"][0]["key"] = {"density": 0.01, "kernel": "conv"}
        self.assertEqual(self.gate(bench(), fresh), 0)

    def test_drop_beyond_threshold_fails(self):
        self.assertEqual(
            self.gate(bench(2.0), bench(1.5), "--threshold", "0.20"), 1)

    def test_drop_within_threshold_passes(self):
        self.assertEqual(
            self.gate(bench(2.0), bench(1.7), "--threshold", "0.20"), 0)

    def test_key_missing_from_fresh_run_fails(self):
        self.assertEqual(self.gate(bench(), bench(extra_record=False)), 1)

    def test_new_record_in_fresh_run_passes(self):
        self.assertEqual(self.gate(bench(extra_record=False), bench()), 0)

    def test_thread_mismatch_fails(self):
        self.assertEqual(self.gate(bench(threads=1), bench(threads=4)), 1)

    def test_truncated_json_is_malformed(self):
        text = json.dumps(bench())
        self.assertEqual(self.gate(text[:len(text) // 2], bench()), 2)

    def test_record_without_metrics_is_malformed(self):
        fresh = bench()
        del fresh["results"][0]["metrics"]
        self.assertEqual(self.gate(bench(), fresh), 2)

    def test_non_numeric_metric_is_malformed(self):
        fresh = bench()
        fresh["results"][0]["metrics"]["speedup"] = "fast"
        self.assertEqual(self.gate(bench(), fresh), 2)

    def test_old_schema_record_is_malformed(self):
        old = {"threads": 1, "results": [
            {"kernel": "conv", "shape": "2x8x8", "density": 0.01,
             "speedup": 2.0}]}
        self.assertEqual(self.gate(old, bench()), 2)

    def test_every_checked_in_baseline_gates_a_metric(self):
        paths = sorted(glob.glob(os.path.join(REPO, "BENCH_*.json")))
        self.assertTrue(paths)
        for path in paths:
            with self.subTest(baseline=os.path.basename(path)):
                records, _ = check_bench_regression.load(path)
                self.assertGreater(sum(len(m) for m in records.values()), 0)
                with open(path) as f:
                    text = f.read()
                self.assertEqual(self.gate(text, text), 0)


if __name__ == "__main__":
    unittest.main()
