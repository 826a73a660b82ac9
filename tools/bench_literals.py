"""Layer bench of literal reading and law suites: timeit rows for one or two source trees, merged into a JSON file.

Rows, each in microseconds per call:

  * ``parse_value_P``      -- one ``P`` literal through ``values.parse_value``;
  * ``tokenstream_200``    -- the token list of a 200-literal product text:
    ``TokenStream`` and its first ``peek``, which lexes it;
  * ``eval_8``, ``eval_32``, ``eval_200`` -- ``cli.eval_expression`` of a
    product of that many ``P`` literals with 20-bit numerators and
    denominators, and ``main_eval_8`` -- the 8-literal product through
    ``cli.main(["eval", "P", ...])`` with its output redirected, as the
    ``eval`` workload calls it: the reading of the command line, which
    ``eval_expression`` alone does not show;
  * ``eval_prod_inv_200`` -- the same 200-factor product with about a
    quarter of its factors written ``inv(...)``, and ``eval_sum_200`` -- a
    sum of 200 ``P`` literals at levels 0 and -1 over distinct 20-bit
    denominators: the two slowest shapes the ``eval`` workload sends;
  * ``eval_paren_200`` -- 200 ``P`` literals, each in parentheses, and
    ``eval_pn2_200`` -- 200 ``Pn(2)`` literals, multiplied: products that
    the run reader does not take, so they fold with ``mul`` factor by factor;
  * ``eval_sumprod_200`` -- 100 two-factor products of ``P`` literals,
    summed: each product after the first is a run read after the text was
    lexed, and ``eval_spaced_200`` -- the 200-factor product with " * "
    between its factors;
  * ``draw_<S>`` -- one ``laws.random_value`` of the law structure S, and
    ``suite_<S>`` -- one ``laws.structure_laws(S, seed, 10)``, the ``laws``
    workload's request, for each of the seven law structures;
  * ``load_scene_3000`` -- ``scenes.scene_from_dict`` and then
    ``prob.validate_probability`` of a 3,000-atom ``P`` scene shaped like
    the ``inference`` workload's: levels 0, -1 and -3, each atom's residue
    its weight over its level's total, 8 events and an 8-cell partition;
    and ``level_masses_3000`` -- ``prob.level_masses`` of that scene.

Stdlib only.  Each tree's package is imported under its own name, so two
trees load into one process.  Each of N rounds times every row once per
tree (best of 3 repeats), the trees taking turns to go first; a tree's
row is the median of its rounds.  With ``--parent`` the two trees are
timed round by round, so a change in host speed falls on both alike, and
the file also gets each row's change/parent ratio per round, as its
quartiles.  ``--parent`` is a src/ directory or a git revision of this
repository, whose src/ is extracted with ``git archive`` into a temporary
directory for the run and removed after it.  For example::

    python3 tools/bench_literals.py --parent HEAD --src src --out BENCH_29.json

Each run replaces the entries with its labels in the ``--out`` file
(default ``BENCH_17.json``, in the working directory) and keeps the
others.  Timings stay out of the test suite: pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import timeit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _literals(n, seed=17):
    rng = random.Random(seed)
    lo, hi = 2**19, 2**20
    return [f"({rng.randint(-3, 3)},{rng.randrange(lo, hi)}/{rng.randrange(lo, hi)})" for _ in range(n)]


def _workload_shapes(n, seed=23):
    """The eval workload's slow shapes: an n-factor product with inv(...) factors, and an n-term sum."""
    rng = random.Random(seed)
    prod = "*".join(f"inv({lit})" if rng.random() < 0.25 else lit for lit in _literals(n, seed))
    dens = rng.sample(range(2**19, 2**20), n)
    return prod, "+".join(f"({rng.choice((0, 0, 0, -1))},{rng.randrange(1, 2**20)}/{d})" for d in dens)


def _unrun_products(n, seed=29):
    """(structure, text) of two n-factor products the run reader does not take: parenthesised P, and Pn(2)."""
    rng = random.Random(seed)
    lits = _literals(n, seed)
    nested = "*".join(f"({rng.randint(-3, 3)},{lit})" for lit in lits)
    return ("P", "*".join(f"({lit})" for lit in lits)), ("Pn(2)", nested)


def _scene(n, seed=31):
    """A scene document of n atoms over P, shaped like the inference workload's."""
    rng = random.Random(seed)
    atoms = [(f"a{i}", rng.choices((0, -1, -3), weights=(5, 3, 2))[0], rng.randint(1, 1000)) for i in range(n)]
    totals = {lev: sum(w for _, l, w in atoms if l == lev) for lev in (0, -1, -3)}
    events = {f"E{j}": [a for a, _, _ in atoms if rng.random() < 0.05 + 0.06 * j] or [atoms[j][0]] for j in range(8)}
    cells = {f"C{j}": [] for j in range(8)}
    for i, (a, _, _) in enumerate(atoms):
        cells[f"C{i if i < 8 else rng.randrange(8)}"].append(a)
    return {"structure": "P", "atoms": [{"id": a, "value": f"({lev},{w}/{totals[lev]})"} for a, lev, w in atoms],
            "events": {**events, **cells}}


def _revision(src):
    """The git revision of src's checkout, with "-dirty" if src has uncommitted changes; None outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", src, *args], capture_output=True, text=True, check=True).stdout.strip()
    try:
        rev = git("rev-parse", "--short", "HEAD")
        return rev + ("-dirty" if git("status", "--porcelain", "--", ".") else "")
    except (OSError, subprocess.CalledProcessError):
        return None


@contextlib.contextmanager
def _tree(src):
    """(src/ directory, its revision): src itself if it is a directory, else git revision src's src/, extracted
    into a temporary directory that is removed afterwards."""
    if os.path.isdir(src):
        yield src, _revision(src)
        return
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "--verify", src + "^{commit}"],
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        raise SystemExit(f"bench_literals: {src!r} is neither a directory nor a git revision") from None
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src"], capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        yield os.path.join(tmp, "src"), rev


def _load(src, name):
    """The lexiring package under src, imported as name."""
    path = os.path.join(os.path.abspath(src), "lexiring")
    spec = importlib.util.spec_from_file_location(name, os.path.join(path, "__init__.py"),
                                                  submodule_search_locations=[path])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(cli, argv):
    """cli.main(argv) with its output redirected, as the eval workload calls it; its exit code must be 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv


def _cases(src, name, number):
    """Each row's call and its calls per repeat, on the tree under src; number is the one-literal row's."""
    _load(src, name)
    cli = importlib.import_module(name + ".cli")
    eval_expression = cli.eval_expression
    descriptors = importlib.import_module(name + ".descriptors")
    parse_value = importlib.import_module(name + ".values").parse_value
    p = descriptors.parse_struct("P")
    one = _literals(1)[0]
    text200 = "*".join(_literals(200))
    cases = {
        "parse_value_P": (lambda: parse_value(p, one), number),
        "tokenstream_200": (lambda: descriptors.TokenStream(text200).peek(), max(1, number // 20)),
    }
    for terms in (8, 32, 200):
        text = "*".join(_literals(terms))
        cases[f"eval_{terms}"] = (lambda text=text: eval_expression("P", text), max(1, number // terms))
    cases["main_eval_8"] = (lambda text="*".join(_literals(8)): _main(cli, ["eval", "P", text]), max(1, number // 8))
    for row, text in zip(("eval_prod_inv_200", "eval_sum_200"), _workload_shapes(200)):
        cases[row] = (lambda text=text: eval_expression("P", text), max(1, number // 200))
    for row, (struct, text) in zip(("eval_paren_200", "eval_pn2_200"), _unrun_products(200)):
        cases[row] = (lambda struct=struct, text=text: eval_expression(struct, text), max(1, number // 200))
    lits = _literals(200)
    for row, text in (("eval_sumprod_200", "+".join(map("*".join, zip(lits[::2], lits[1::2])))),
                      ("eval_spaced_200", " * ".join(lits))):
        cases[row] = (lambda text=text: eval_expression("P", text), max(1, number // 200))
    scenes, prob = importlib.import_module(name + ".scenes"), importlib.import_module(name + ".prob")
    doc = _scene(3000)
    cases["load_scene_3000"] = (lambda: prob.validate_probability(scenes.scene_from_dict(doc)), max(1, number // 1000))
    m = scenes.scene_from_dict(doc)
    cases["level_masses_3000"] = (lambda: prob.level_masses(m), max(1, number // 200))
    laws = importlib.import_module(name + ".laws")
    for struct in laws.LAW_STRUCTURES:
        d, rng, seeds = descriptors.parse_struct(struct), random.Random(7), itertools.count()
        cases[f"draw_{struct}"] = (lambda d=d, rng=rng: laws.random_value(rng, d), number)
        cases[f"suite_{struct}"] = (lambda d=d, seeds=seeds: laws.structure_laws(d, next(seeds), 10),
                                    max(1, number // 200))
    return cases


def measure(srcs, n, number=2000):
    """Per tree, each row's median over n rounds of its best of 3 repeats, in microseconds, and per round
    the later trees' times over the first's."""
    trees = [_cases(src, f"lexiring_{i}", number) for i, src in enumerate(srcs)]
    times = [{row: [] for row in trees[0]} for _ in trees]
    for r in range(n):
        order = list(range(len(trees)))
        for row in trees[0]:
            for i in order[::-1] if r % 2 else order:
                f, k = trees[i][row]
                times[i][row].append(min(timeit.repeat(f, repeat=3, number=k)) / k * 1e6)
    rows = [{row: round(statistics.median(t), 3) for row, t in tree.items()} for tree in times]
    ratios = [{row: [a / b for a, b in zip(tree[row], times[0][row])] for row in tree} for tree in times[1:]]
    for row in trees[0]:
        print(f"{row:18s}" + "".join(f" {tree[row]:12.3f}" for tree in rows) + " us"
              + "".join(f"  ratio {statistics.median(r[row]):.3f}" for r in ratios))
    return rows, ratios


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default="src", help="the src/ directory to import lexiring from")
    ap.add_argument("--label", default="change", help="the entry the --src tree writes")
    ap.add_argument("--parent", help="a second src/ directory or git revision, timed round by round with --src, "
                                     "as 'parent'")
    ap.add_argument("-n", type=int, default=9, help="rounds; each row keeps its median")
    ap.add_argument("--out", default="BENCH_17.json", help="the JSON file the entries are merged into")
    args = ap.parse_args(argv)
    if args.n < 2:
        ap.error("-n must be at least 2: the ratios' quartiles need two rounds")
    with contextlib.ExitStack() as stack:
        trees = [stack.enter_context(_tree(src)) for src in ([args.parent, args.src] if args.parent else [args.src])]
        rows, ratios = measure([src for src, _ in trees], args.n)
    labels = ["parent", args.label] if args.parent else [args.label]
    try:
        with open(args.out) as f:
            doc = json.load(f)
    except FileNotFoundError:
        doc = {"runs": {}}
    doc["unit"] = "us per call, median over N rounds of the best of 3 timeit repeats"
    for (_, revision), label, tree in zip(trees, labels, rows):
        doc["runs"][label] = {
            "revision": revision, "N": args.n, "rows": tree,
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.platform()}",
            "python": platform.python_version(),
        }
    if ratios:
        doc[f"ratio_{args.label}_over_parent"] = {
            row: [round(q, 3) for q in statistics.quantiles(r, n=4)] for row, r in ratios[0].items()}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
