#!/usr/bin/env python3
"""Tests of the benchmark harness itself.

    python3 perfbench/test_perfbench.py

The statistics and stamp tests are instant. The negative tests build
the benchmark (first time only) and run the small resilient_busy
estate for about a second each: a wrong estate digest or a tampered
SIEM line must count as failed checks and fail the command.
"""

import json
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import stats  # noqa: E402


class TailRule(unittest.TestCase):
    def test_value_has_exactly_ten_samples_beyond(self):
        values = list(range(40, 0, -1))  # 1..40, unsorted
        value, percentile, n = stats.tail(values)
        self.assertEqual(value, 30)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(percentile, 0.75)
        self.assertEqual(n, 40)

    def test_smallest_sample_count(self):
        value, percentile, n = stats.tail(list(range(11)))
        self.assertEqual(value, 0)
        self.assertAlmostEqual(percentile, 1 / 11)
        self.assertEqual(n, 11)

    def test_too_few_samples_refused(self):
        with self.assertRaises(ValueError):
            stats.tail(list(range(10)))

    def test_equal_samples(self):
        self.assertEqual(stats.tail([5.0] * 15), (5.0, 5 / 15, 15))


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        for values in ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
                       [0.3, 0.1, 0.7, 0.2, 0.9],
                       [10.0, 10.5, 9.5, 10.2, 9.9, 10.1, 10.3]):
            self.assertEqual(list(stats.quartiles(values)),
                             statistics.quantiles(values, n=4))

    def test_spread_is_iqr_over_median(self):
        values = list(range(1, 11))  # q1 2.75, q3 8.25, median 5.5
        self.assertAlmostEqual(stats.spread(values), 1.0)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.spread([3.0] * 10), 0.0)


class Stamps(unittest.TestCase):
    STAMP = {"git_sha": "a", "source_digest": "b", "build_type": "Release",
             "compiler": "GNU", "compiler_version": "12.2.0",
             "flags": "-O3 -DNDEBUG", "nproc": 4, "worker_threads": 2,
             "sha256_backend": "sha-ni"}

    def result(self, **changes):
        return {"stamp": dict(self.STAMP, **changes)}

    def test_code_identity_may_differ(self):
        self.assertIsNone(compare.check_stamps(
            [self.result(), self.result(git_sha="c", source_digest="d")]))

    def test_environment_must_match(self):
        for key, value in (("build_type", "RelWithDebInfo"), ("nproc", 1),
                           ("sha256_backend", "portable"),
                           ("worker_threads", 4)):
            self.assertIn(key, compare.check_stamps(
                [self.result(), self.result(**{key: value})]))


def run_bench(*extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "resilient_busy", "--seed", "7", "--seconds", "0.5", *extra],
        capture_output=True, text=True, timeout=900)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc.returncode, json.loads(last) if last.startswith("{") else None


class NegativeChecks(unittest.TestCase):
    def test_clean_run_passes(self):
        code, result = run_bench("--trace", "0")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)

    def test_wrong_digest_fails_the_command(self):
        code, result = run_bench("--trace", "0", "--expect-digest", "0" * 64)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_tampered_siem_line_raises_failure_ratio(self):
        code, result = run_bench("--trace", "1", "--tamper-siem")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["metrics"]["failure_ratio"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
