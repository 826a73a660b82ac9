#!/usr/bin/env python3
"""lexiring benchmark: one workload per process, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload laws --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up, warms up, then sends requests one after another in
windows until ``--seconds`` have passed and at least 1,000 requests were
measured, repeating the set-up now and then on the side (``setup_s`` is
the median).  A lexiring-free probe loop timed before every window and
set-up gives the host's speed at that moment; every timing is reported at
a fixed reference speed of that probe.  It prints every end-to-end metric.

``--trace 1`` serves the first 1,000 requests of the same stream twice
from a fresh set-up: once untraced, once with the layer tracer installed
(set-up included).  It prints the per-layer metrics and writes every span
to ``perfbench/out/``.

Every answer is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter as clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from layertrace import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REQUESTS = 1000  # so that at least 10 latency samples lie beyond p99
TRACE_REQUESTS = 1000  # the traced run's fixed request count
DIGEST_REQUESTS = 1000  # the digest covers the first this-many answers of the stream
WARMUP_REQUESTS = 10
SETUP_REPEATS = (5, 60)  # at least 5, and more while they would total under SETUP_MIN_S
SETUP_MIN_S = 3.0
HASH_SEED = "0"
# The probe's time on a calm host.  On a shared host the same loop runs up to
# 1.7x slower, for moments or for whole runs at a time, and lexiring's requests
# slow with it; so each window's latencies and each set-up are multiplied by
# PROBE_REF_S over the probe timed just before them, and read as they would on
# a host where the probe takes PROBE_REF_S.  The probe never runs lexiring
# code, so a slower lexiring reads slower whatever the host does.
PROBE_REF_S = 120e-6

END_TO_END_UNITS = {
    "throughput_rps": "requests/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


# ---------------------------------------------------------------------------
# loading lexiring from this checkout
# ---------------------------------------------------------------------------

def _lexiring_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "lexiring" or n.startswith("lexiring.")}


def load_lexiring(modules) -> types.SimpleNamespace:
    """Import lexiring afresh from ``src/``; returns its loaded modules by short name."""
    for name in _lexiring_modules():
        del sys.modules[name]
    pkg = importlib.import_module("lexiring")
    for name in modules:
        importlib.import_module(name)
    lx = types.SimpleNamespace(lexiring=pkg)
    for name, mod in _lexiring_modules().items():
        setattr(lx, name.rpartition(".")[2], mod)
    return lx


def setup_once(wl):
    """One timed set-up after a host probe: ``(lx, state, (probe_s, setup_s))``."""
    gc.collect()
    p = probe()
    t0 = clock()
    lx = load_lexiring(wl.modules)
    state = wl.load(lx)
    return lx, state, (p, clock() - t0)


def setup_aside(wl):
    """A set-up repeat while another one is being served.

    The served modules go back into ``sys.modules`` afterwards, so that an
    import made while serving still finds them; the new set-up is dropped.
    """
    served = _lexiring_modules()
    timing = setup_once(wl)[2]
    for name in _lexiring_modules():
        del sys.modules[name]
    sys.modules.update(served)
    return timing


# ---------------------------------------------------------------------------
# serving requests
# ---------------------------------------------------------------------------

class Tally:
    """Answers, failures and the digest of one pass over a request stream."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digest = hashlib.sha256()

    def serve(self, wl, lx, state, req, tracer=None) -> float:
        """One request; returns its latency in seconds.  Checking happens off the clock."""
        if tracer is not None:
            tracer.begin(self.attempted)
        t0 = clock()
        try:
            out = wl.call(lx, state, req)
        except Exception as exc:  # a raising request is a failed request, not a crash
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        t1 = clock()
        if tracer is not None:
            tracer.end()
        if out is not None and wl.check(req, out):
            error = None
        elif out is not None:
            error = f"answer {out[:200]!r} disagrees with the oracle's {str(req[2])[:200]!r}"
        if error is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"request {self.attempted} ({req[0]}): {error}")
        if self.attempted < DIGEST_REQUESTS:
            self.digest.update((out if out is not None else "<raised>").encode() + b"\n")
        self.attempted += 1
        return t1 - t0


def spin(n: int) -> float:
    """Best-of-3 time of a fixed pure-Python loop of ``n`` steps."""
    best = math.inf
    for _ in range(3):
        t0 = clock()
        acc = 0
        for i in range(n):
            acc += i * i % 7
        best = min(best, clock() - t0)
    return best


def calibrate() -> float:
    """Host speed before and after a run; context only, it normalises nothing."""
    return spin(200_000)


def probe() -> float:
    """Host speed just before a window of requests or a set-up (about 0.4 ms)."""
    return spin(2_000)


def percentile(sorted_values, q: float):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_timed(wl, seconds: float):
    lx, state, first = setup_once(wl)
    setups = [first]  # (probe_s, setup_s)
    # the repeats are spread over the run, so that they meet the host as the requests do
    repeats = min(SETUP_REPEATS[1], max(SETUP_REPEATS[0], math.ceil(SETUP_MIN_S / first[1])))
    tally = Tally()
    stream = wl.requests()
    for _ in range(WARMUP_REQUESTS):
        tally.serve(wl, lx, state, next(stream))
    windows = []  # (probe_s, latencies of wl.window requests)
    start = clock()
    while (elapsed := clock() - start) < seconds or len(windows) * wl.window < MIN_REQUESTS:
        if len(setups) < repeats * min(1.0, elapsed / seconds):
            setups.append(setup_aside(wl))
        p = probe()
        windows.append((p, [tally.serve(wl, lx, state, next(stream)) for _ in range(wl.window)]))
    while len(setups) < repeats:
        setups.append(setup_aside(wl))

    def summary(adjust):
        lat = sorted(adjust(p, t) for p, ts in windows for t in ts)
        return lat, {
            "throughput_rps": len(lat) / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p99_ms": percentile(lat, 0.99) * 1e3,
            "setup_s": statistics.median(adjust(p, t) for p, t in setups),
        }

    lat, metrics = summary(lambda p, t: t * PROBE_REF_S / p)
    metrics["peak_rss_mb"] = peak_rss_mib()
    raw = summary(lambda p, t: t)[1]
    probes = [p for p, _ in windows] + [p for p, _ in setups]
    context = {
        "samples": f"{len(lat)} requests in {len(windows)} windows",
        "samples_beyond_p99": len(lat) - math.ceil(0.99 * len(lat)),
        "warmup_requests": WARMUP_REQUESTS,
        "setup_repeats": len(setups),
        "host_probe_s": f"median {statistics.median(probes):.4g}, range {min(probes):.4g}-{max(probes):.4g} "
                        f"over {len(probes)} probes (reference {PROBE_REF_S:g})",
        **{f"unadjusted_{name}": value for name, value in raw.items()},
    }
    return tally, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, context


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _gc_timer():
    state = {"paused": 0.0, "since": None}

    def callback(phase, info):
        if phase == "start":
            state["since"] = clock()
        elif state["since"] is not None:
            state["paused"] += clock() - state["since"]
            state["since"] = None

    return state, callback


# per-layer metric: (tracer layer, field of its (calls, total_s, self_s) totals, unit)
PER_LAYER = {
    "ops.public_calls": ("ops.public", 0, "count"),
    "ops.public_self_s": ("ops.public", 2, "s"),
    "values.check_calls": ("values.check", 0, "count"),
    "values.check_self_s": ("values.check", 2, "s"),
    "laws.gen_calls": ("laws.gen", 0, "count"),
    "laws.gen_self_s": ("laws.gen", 2, "s"),
    "cli.main_self_s": ("cli.main", 2, "s"),
    "cli.expr_self_s": ("cli.expr", 2, "s"),
    "values.parse_calls": ("values.parse", 0, "count"),
    "values.parse_self_s": ("values.parse", 2, "s"),
    "values.format_self_s": ("values.format", 2, "s"),
    "descriptors.parse_calls": ("descriptors.parse", 0, "count"),
    "descriptors.parse_self_s": ("descriptors.parse", 2, "s"),
    "scenes.load_s": ("scenes.load", 1, "s"),
    "measure.build_calls": ("measure.build", 0, "count"),
    "measure.build_self_s": ("measure.build", 2, "s"),
    "tree.build_s": ("tree.build", 1, "s"),
    "xreal.arith_calls": ("xreal.arith", 0, "count"),
    "xreal.arith_self_s": ("xreal.arith", 2, "s"),
    "ops.kernel_calls": ("ops.kernel", 0, "count"),
    "ops.kernel_self_s": ("ops.kernel", 2, "s"),
    "measure.value_calls": ("measure.value", 0, "count"),
    "measure.value_self_s": ("measure.value", 2, "s"),
    "prob.cond_calls": ("prob.cond", 0, "count"),
    "prob.cond_self_s": ("prob.cond", 2, "s"),
    "prob.bayes_calls": ("prob.bayes", 0, "count"),
    "prob.bayes_self_s": ("prob.bayes", 2, "s"),
    "tree.segment_calls": ("tree.segment", 0, "count"),
    "tree.segment_self_s": ("tree.segment", 2, "s"),
    "tree.query_self_s": ("tree.query", 2, "s"),
}


def per_layer_metrics(tracer: Tracer, overhead: float, gc_pause: float) -> dict:
    totals = tracer.totals()
    m = {name: (totals.get(layer, (0, 0.0, 0.0))[field], unit) for name, (layer, field, unit) in PER_LAYER.items()}
    m["xreal.max_bits"] = (tracer.max_bits, "bits")
    m["measure.atoms_scanned"] = (tracer.atoms_scanned, "count")
    m["python.gc_pause_s"] = (gc_pause, "s")
    m["trace.overhead"] = (overhead, "ratio")
    return m


def run_traced(wl, seed: int, requests: int = TRACE_REQUESTS):
    lx = load_lexiring(wl.modules)

    # untraced pass: the baseline for trace.overhead, and the GC pauses
    plain = Tally()
    state = wl.load(lx)
    stream = wl.requests()
    gc_state, gc_callback = _gc_timer()
    gc.callbacks.append(gc_callback)
    try:
        busy_plain = sum(plain.serve(wl, lx, state, next(stream)) for _ in range(requests))
    finally:
        gc.callbacks.remove(gc_callback)

    # traced pass: the same requests from a fresh, traced set-up
    traced = Tally()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin("setup")
        state = wl.load(lx)
        tracer.end()
        stream = wl.requests()
        busy_traced = sum(traced.serve(wl, lx, state, next(stream), tracer) for _ in range(requests))
    finally:
        tracer.uninstall()

    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{wl.name}-seed{seed}.json",
                {"workload": wl.name, "seed": seed, "requests": requests})
    metrics = per_layer_metrics(tracer, busy_traced / busy_plain, gc_state["paused"])
    context = {
        "traced_requests": requests,
        "digests_agree": plain.digest.digest() == traced.digest.digest(),
        "untraced_busy_s": busy_plain,
        "traced_busy_s": busy_traced,
    }
    return plain, traced, metrics, context


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lexiring" / "__init__.py").is_file():
        print(f"error: no lexiring sources under {SRC}; run from a lexiring checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # one string-hash layout for every run, so set and dict costs do not vary by process
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.path.insert(0, str(SRC))

    calib_before = calibrate()
    wl = WORKLOADS[args.workload](args.seed)
    if args.trace:
        plain, traced, metrics, context = run_traced(wl, args.seed)
        tallies = (plain, traced)
        correct = context.pop("digests_agree")
    else:
        tally, metrics, context = run_timed(wl, args.seconds)
        tallies = (tally,)
        correct = True
    calib_after = calibrate()

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    correct = correct and failed == 0
    print(f"workload={wl.name} seed={args.seed} trace={args.trace}: {wl.why}")
    for key, value in context.items():
        print(f"  {key} = {value}")
    print(f"  fail_ratio = {failed / attempted} ratio ({failed} of {attempted} requests)")
    for t in tallies:
        for line in t.failures:
            print(f"  FAILED {line}")
    print(f"  digest = sha256:{tallies[0].digest.hexdigest()} (first {DIGEST_REQUESTS} answers)")
    print(f"  host_calibration_s = {calib_before:.6f} before, {calib_after:.6f} after")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
