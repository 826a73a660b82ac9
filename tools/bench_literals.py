"""Layer bench of literal reading: best-of-N timeit for one source tree, merged into a JSON file.

Rows, each in microseconds per call:

  * ``parse_value_P``      -- one ``P`` literal through ``values.parse_value``;
  * ``tokenstream_200``    -- ``TokenStream`` of a 200-literal product text;
  * ``eval_8``, ``eval_32``, ``eval_200`` -- ``cli.eval_expression`` of a
    product of that many ``P`` literals with 20-bit numerators and
    denominators, as the ``eval`` workload sends.

Stdlib only.  Run it once per source tree into the same file, for example::

    python3 tools/bench_literals.py --src ../parent/src --label parent
    python3 tools/bench_literals.py --src src --label change

Each run replaces the entry with its label in ``BENCH_17.json`` (in the
working directory) and keeps the others.  Timings stay out of the test
suite: pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import timeit

OUT = "BENCH_17.json"


def _literals(n, seed=17):
    rng = random.Random(seed)
    lo, hi = 2**19, 2**20
    return [f"({rng.randint(-3, 3)},{rng.randrange(lo, hi)}/{rng.randrange(lo, hi)})" for _ in range(n)]


def _revision(src):
    """The git revision of src's checkout, with "-dirty" if src has uncommitted changes; None outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", src, *args], capture_output=True, text=True, check=True).stdout.strip()
    try:
        rev = git("rev-parse", "--short", "HEAD")
        return rev + ("-dirty" if git("status", "--porcelain", "--", ".") else "")
    except (OSError, subprocess.CalledProcessError):
        return None


def measure(src, n, number=2000):
    """Each row's best time in microseconds; number is the calls per repeat of the one-literal row."""
    sys.path.insert(0, os.path.abspath(src))
    from lexiring.cli import eval_expression
    from lexiring.descriptors import TokenStream, parse_struct
    from lexiring.values import parse_value

    p = parse_struct("P")
    one = _literals(1)[0]
    text200 = "*".join(_literals(200))
    cases = {
        "parse_value_P": (lambda: parse_value(p, one), number),
        "tokenstream_200": (lambda: TokenStream(text200), max(1, number // 20)),
    }
    for terms in (8, 32, 200):
        text = "*".join(_literals(terms))
        cases[f"eval_{terms}"] = (lambda text=text: eval_expression("P", text), max(1, number // terms))
    rows = {}
    for name, (f, k) in cases.items():
        rows[name] = round(min(timeit.repeat(f, repeat=n, number=k)) / k * 1e6, 3)
        print(f"{name:16s} {rows[name]:12.3f} us  (best of {n} x {k})")
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default="src", help="the src/ directory to import lexiring from")
    ap.add_argument("--label", default="change", help="the entry this run writes")
    ap.add_argument("-n", type=int, default=7, help="timeit repeats; the best is kept")
    args = ap.parse_args(argv)
    rows = measure(args.src, args.n)
    try:
        with open(OUT) as f:
            doc = json.load(f)
    except FileNotFoundError:
        doc = {"unit": "us per call, best of N timeit repeats", "runs": {}}
    doc["runs"][args.label] = {
        "revision": _revision(args.src), "N": args.n, "rows": rows,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.platform()}",
        "python": platform.python_version(),
    }
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
