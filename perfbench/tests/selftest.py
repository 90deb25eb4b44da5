#!/usr/bin/env python3
"""Self-tests of the benchmark: python3 perfbench/tests/selftest.py

Builds the benchmark and its span unit tests (perfbench_tests, which needs
GoogleTest), runs those, then checks the harness end to end on short runs:
traced and untraced passes produce identical digests, a corrupted committed
digest fails the run loudly, and a second seed runs each workload to its
own committed digest, the same on every run. Takes a few minutes; run it on
an otherwise idle machine.
"""

import json
import os
import subprocess
import sys
import unittest

TESTS = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(TESTS)
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
RUN = os.path.join(BENCH, "run.py")
DIGESTS = os.path.join(BENCH, "digests.json")
WORKLOADS = ("sweep", "chaos", "dpor")


def bench(workload, seed, trace=0, digests=DIGESTS):
    """One shortest run (a single batch per pass): (process, result, record)."""
    done = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--trace", str(trace), "--digests", digests],
                          cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    path = os.path.join(BUILD, "records", f"{workload}-seed{seed}-trace{trace}.json")
    record = None
    if result is not None:
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
    return done, result, record


def digests_of(record):
    return {b["digest"] for p in record["binary"]["passes"] for b in p["batches"]}


class SpanArithmetic(unittest.TestCase):
    def test_span_unit_tests_pass(self):
        subprocess.run([sys.executable, RUN, "--workload", "sweep", "--seconds", "0"],
                       cwd=ROOT, capture_output=True, check=False)  # configures the build
        subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench_tests"],
                       check=True, capture_output=True)
        done = subprocess.run([os.path.join(BUILD, "perfbench_tests")],
                              capture_output=True, text=True, check=False)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)


class EndToEnd(unittest.TestCase):
    def test_traced_and_untraced_passes_agree_on_every_digest(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                seen = set()
                for trace in (0, 1):
                    done, result, record = bench(workload, 1, trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    self.assertTrue(result["correct"])
                    seen |= digests_of(record)
                self.assertEqual(len(seen), 1, seen)

    def test_a_corrupted_digest_fails_the_run_loudly(self):
        with open(DIGESTS, encoding="utf-8") as f:
            committed = json.load(f)
        committed["sweep"]["digests"] = [
            ("0" if d[0] != "0" else "1") + d[1:] for d in committed["sweep"]["digests"]]
        os.makedirs(BUILD, exist_ok=True)
        corrupted = os.path.join(BUILD, "selftest-digests.json")
        with open(corrupted, "w", encoding="utf-8") as f:
            json.dump(committed, f)
        done, result, _ = bench("sweep", 1, digests=corrupted)
        self.assertNotEqual(done.returncode, 0)
        self.assertIn("DIGEST MISMATCH", done.stderr)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_a_second_seed_has_its_own_stable_digest(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = digests_of(bench(workload, 1)[2])
                runs = [bench(workload, 2) for _ in range(2)]
                for done, result, _ in runs:
                    self.assertEqual(done.returncode, 0, done.stderr)
                    self.assertTrue(result["correct"])
                second = [digests_of(record) for _, _, record in runs]
                self.assertEqual(second[0], second[1])
                self.assertEqual(len(second[0]), 1)
                if workload == "dpor":
                    self.assertEqual(second[0], first)  # a fixed corpus: no seeded input
                else:
                    self.assertNotEqual(second[0], first)


if __name__ == "__main__":
    unittest.main(verbosity=2)
