#!/usr/bin/env python3
"""Self-tests of the benchmark (not part of the repository's pytest suite).

Run from the repository root:

    python3 perfbench/selftest.py

They check that a fault planted in lexiring drives ``failed`` above 0 on
every workload, that one seed repeats its digest and per-layer call counts
exactly while another seed gets other inputs, and that the benchmark
refuses to run without lexiring's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))

SEED = 7
FAULT_REQUESTS = 40
TRACE_REQUESTS = 60


def _wrong_segment(lx):
    original = lx.tree.segment
    lx.tree.segment = lambda t, x, y: original(t, x, y)[:-1] or [x]


# each fault replaces one name that the workload's requests go through
FAULTS = {
    "laws": lambda lx: setattr(lx.ops, "add", lambda d, x, y: x),
    "eval": lambda lx: setattr(lx.ops, "mul", lambda d, x, y: x),
    "inference": lambda lx: setattr(lx.measure, "_add", lambda d, x, y: x),
    "tree": _wrong_segment,
}


def serve(name, seed, n, fault=None):
    wl = WORKLOADS[name](seed)
    lx = run.load_lexiring(wl.modules)
    state = wl.load(lx)
    if fault is not None:
        fault(lx)
    tally = run.Tally()
    stream = wl.requests()
    for _ in range(n):
        tally.serve(wl, lx, state, next(stream))
    return tally


class FaultsAreCaught(unittest.TestCase):
    def test_clean_run_has_no_failures(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(serve(name, SEED, FAULT_REQUESTS).failed, 0)

    def test_planted_fault_fails_requests(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertGreater(serve(name, SEED, FAULT_REQUESTS, FAULTS[name]).failed, 0)


class Determinism(unittest.TestCase):
    @staticmethod
    def traced(name, seed):
        plain, traced, metrics, context = run.run_traced(WORKLOADS[name](seed), seed, TRACE_REQUESTS)
        assert plain.failed == traced.failed == 0
        assert context["digests_agree"]
        counts = {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bits")}
        return plain.digest.hexdigest(), counts

    def test_same_seed_repeats_digest_and_counts(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first, second = self.traced(name, SEED), self.traced(name, SEED)
                self.assertEqual(first, second)
                self.assertTrue(any(first[1].values()), "a traced run counted no calls")

    def test_other_seed_gets_other_inputs(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertNotEqual(WORKLOADS[name](SEED).fingerprint(), WORKLOADS[name](SEED + 1).fingerprint())
                if name != "laws":  # law answers are PASS lines, the same for every seed
                    self.assertNotEqual(serve(name, SEED, 20).digest.digest(), serve(name, SEED + 1, 20).digest.digest())


class RefusesWithoutSources(unittest.TestCase):
    def test_bare_directory_exits_nonzero_without_result(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
            shutil.copytree(run.HERE, Path(bare) / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", "laws", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            with self.assertRaises(ValueError):
                json.loads(line)


if __name__ == "__main__":
    unittest.main()
