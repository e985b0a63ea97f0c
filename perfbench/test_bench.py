#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 perfbench/test_bench.py

- The in-process benchmark writes the same CSV/JSON bytes as the `profisched`
  CLI run with the same flags (sweep, optimize, simulate --combined, and
  shard x3 + merge against one cache).
- A traced run's layer-by-layer replay reproduces the untraced run's cells
  (verdicts, worst slacks / bounds, exact probe and event counts).
- The committed default-seed digests (digests.json) still hold.
- compare.py refuses results whose host blocks differ and fails a head
  result with failed cells.

Uses a seed no committed digest covers, so the invariants are also checked
away from the default seed.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

CLI = os.path.join(run.CMAKE_DIR, "profisched", "profisched")
SEED = 5
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    WORKLOADS = [w["name"] for w in json.load(f)["workloads"]]
HOST = {"cpu_model": "x", "nproc": 4, "compiler": "GNU 12", "build_type": "Release",
        "cxx_flags": "-O3", "simd_backend": "avx2", "commit": "a"}


def perfbench(*args):
    out = subprocess.run([run.BINARY] + list(args), capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def emit(workload, seed, directory):
    return perfbench("--workload", workload, "--seed", str(seed), "--emit", directory,
                     "--work", os.path.join(directory, "work"))


def read(path):
    with open(path, "rb") as f:
        return f.read()


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def tmp(self):
        os.makedirs(run.BUILD_ROOT, exist_ok=True)
        return tempfile.TemporaryDirectory(dir=run.BUILD_ROOT)

    def test_in_process_output_equals_cli_output(self):
        for w in WORKLOADS:
            with self.subTest(workload=w), self.tmp() as d:
                e = emit(w, SEED, d)
                os.makedirs(os.path.join(d, "cli"))
                for argv in e["cli"]:
                    subprocess.run([CLI] + argv, stdout=subprocess.DEVNULL, check=True)
                self.assertEqual(read(e["csv"]), read(os.path.join(d, "cli", w + ".csv")))
                self.assertEqual(read(e["json"]), read(os.path.join(d, "cli", w + ".json")))

    def test_traced_replay_reproduces_the_product_cells(self):
        for w in WORKLOADS:
            with self.subTest(workload=w), self.tmp() as d:
                r = perfbench("--workload", w, "--seed", str(SEED), "--seconds", "0.1",
                              "--trace", "1", "--work", d)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreater(r["attempted"], 0)

    def test_untraced_invariants_hold(self):
        for w in WORKLOADS:
            with self.subTest(workload=w), self.tmp() as d:
                r = perfbench("--workload", w, "--seed", str(SEED), "--seconds", "0.1",
                              "--trace", "0", "--work", d)
                self.assertTrue(r["correct"])
                self.assertEqual(r["metrics"]["pass_frac"]["value"], 1.0)

    def test_committed_digests(self):
        with open(os.path.join(HERE, "digests.json")) as f:
            committed = json.load(f)
        self.assertEqual(sorted(committed), sorted(WORKLOADS))
        for w, by_seed in committed.items():
            for seed, digest in by_seed.items():
                with self.subTest(workload=w, seed=seed), self.tmp() as d:
                    self.assertEqual(emit(w, int(seed), d)["digest"], digest)

    def test_compare_refuses_results_from_different_hosts(self):
        rec = {"workload": "sweep_edf", "trace": 0, "seconds": 10, "correct": True, "failed": 0,
               "metrics": {"scenarios_per_s": {"value": 100.0, "unit": "scenarios/s"}}}
        with self.tmp() as d:
            a, b, c = (os.path.join(d, n) for n in ("a.json", "b.json", "c.json"))
            for path, h in ((a, HOST), (b, dict(HOST, commit="b")), (c, dict(HOST, nproc=8))):
                with open(path, "w") as f:
                    json.dump(dict(rec, host=h), f)
            compare = [sys.executable, os.path.join(HERE, "compare.py"), "--base", a, "--head"]
            same = subprocess.run(compare + [b], capture_output=True)
            self.assertEqual(same.returncode, 0, same.stderr)
            other = subprocess.run(compare + [c], capture_output=True)
            self.assertEqual(other.returncode, 2)

    def test_compare_fails_a_head_with_failed_cells(self):
        rec = {"workload": "sweep_edf", "trace": 0, "seconds": 10, "host": HOST,
               "correct": True, "failed": 0,
               "metrics": {"pass_frac": {"value": 1.0, "unit": "ratio"}}}
        with self.tmp() as d:
            a, b = os.path.join(d, "a.json"), os.path.join(d, "b.json")
            with open(a, "w") as f:
                json.dump(rec, f)
            with open(b, "w") as f:  # 1 failed cell in 10^4 is within pass_frac's bound
                json.dump(dict(rec, correct=False, failed=1,
                               metrics={"pass_frac": {"value": 0.9999, "unit": "ratio"}}), f)
            compare = [sys.executable, os.path.join(HERE, "compare.py"), "--base", a, "--head", b]
            self.assertEqual(subprocess.run(compare, capture_output=True).returncode, 1)


if __name__ == "__main__":
    unittest.main()
