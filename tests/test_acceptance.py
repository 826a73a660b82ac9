"""Acceptance criteria, one test per criterion.

Every assertion is exact equality (the whole library is exact rational
arithmetic); the two timed criteria assert their stated wall-clock
budgets.  Each test prints one PASS line so a -s run reads as a
checklist.
"""

import itertools
import pathlib
import random
import time

import pytest

from lexiring import ops
from lexiring.cli import main
from lexiring.descriptors import parse_struct
from lexiring.errors import NotRepresentableError
from lexiring.laws import (
    LAW_STRUCTURES,
    assoc_iso_laws,
    integrate_laws,
    measure_laws,
    nonzero_value,
    random_value,
    structure_laws,
    tree_laws,
    weights_laws,
)
from lexiring.measure import AtomSpace, LMeasure, align_levels, is_proximal, shift_levels
from lexiring.prob import bayes, cond_prob
from lexiring.scenes import BUILTIN_TRACKS, builtin_scene, load_track
from lexiring.seq import LevelRamp, Repeat, ResidueRamp, SeqGen, sum_sequence, sup_finite, sup_sequence
from lexiring.values import TOP, ZERO, Pair, Scalar, format_value, parse_value
from lexiring.weights import apply_deck, check_branch_equations, gauge_move
from lexiring.xreal import XReal

from support import pv

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


def test_criterion_1_dartboard_exactness():
    t0 = time.monotonic()
    m = builtin_scene("dartboard")
    ev = m.space.event
    assert cond_prob(m, ev("cross"), ev("upper")) == pv("P", "(-1,3/2)")
    assert cond_prob(m, ev("upper_vray"), ev("cross")) == pv("P", "(0,1/4)")
    assert cond_prob(m, ev("upper_vray"), ev("upper") & ev("cross")) == pv("P", "(0,1/3)")
    assert cond_prob(m, ev("upper_vray"), ev("upper")) == pv("P", "(-1,1/2)")
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - dartboard conditionals exact ({elapsed:.3f}s)")


def test_criterion_2_bayes_exactness():
    m = builtin_scene("dartboard")
    out = bayes(m, ["Q1", "Q2", "Q3", "Q4"], "hline")
    assert out["conditionals"]["Q1"] == pv("P", "(-1,1)")
    assert out["conditionals"]["Q2"] is ZERO
    assert out["conditionals"]["Q4"] is ZERO
    assert out["total"] == pv("P", "(-1,1/2)")
    assert out["posteriors"]["Q1"] == pv("P", "(0,1/2)")
    # The third-quadrant conditional computed from the scene is (-1,1): the
    # cell holds one ray of length 1/4 over area 1/4, exactly like the first
    # quadrant.  A value of (-1,1/4) here would contradict the total
    # P(B) = (-1,1/2), which needs (-1,1)*(0,1/4) from this cell; the engine
    # asserts the computed value.
    assert out["conditionals"]["Q3"] == pv("P", "(-1,1)")
    print("\nACCEPTANCE 2: PASS - Bayes table exact, computed P(B|Q3) = (-1,1) asserted")


def test_criterion_3_nonassociativity_witness():
    right = parse_struct(r"N0 /\ (N0 /\ N0)")
    left = parse_struct(r"(N0 /\ N0) /\ N0")
    got_r = ops.mul(right, parse_value(right, "(1,(1,1))"), parse_value(right, "(2,(1,1))"))
    assert got_r == parse_value(right, "(3,(2,1))")
    got_l = ops.mul(left, parse_value(left, "((1,1),1)"), parse_value(left, "((2,1),1)"))
    assert got_l == parse_value(left, "((2,1),1)")
    print("\nACCEPTANCE 3: PASS - insertion non-associativity witness exact")


def test_criterion_4_algebraic_law_suites():
    t0 = time.monotonic()
    cases = 10_000
    for idx, s in enumerate(LAW_STRUCTURES):
        results = structure_laws(s, 42 + idx, cases)
        bad = [r.line() for r in results if not r.ok]
        assert not bad, bad
        names = {r.law for r in results}
        assert {
            "add_commutative", "add_associative", "mul_commutative", "mul_associative",
            "distributive", "add_identity", "mul_identity", "zero_absorbs",
            "add_monotone", "level_of_product", "level_of_sum",
        } <= names
        if s in ("P", "Pn(2)"):
            assert "multiplicative_inverse" in names
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 4: PASS - law suites on {cases} triples x {len(LAW_STRUCTURES)} structures ({elapsed:.1f}s)")


def test_criterion_5_assoc_iso():
    results = assoc_iso_laws(seed=42, cases=10_000)
    assert len(results) == 3
    for r in results:
        assert r.ok, r.line()
        assert r.cases >= 10_000
    print("\nACCEPTANCE 5: PASS - regrouping isomorphism on 3 x 10^4 random pairs")


def test_criterion_6_summability_and_lub():
    obar = parse_struct("Obar")
    assert sum_sequence(obar, SeqGen(tail=LevelRamp(1, 1, Scalar(XReal(1))))) is TOP

    s = parse_struct("S")
    sbar = parse_struct("Sbar")
    # constant repeats against closed forms
    assert sum_sequence(sbar, SeqGen(tail=Repeat(pv("Sbar", "(3,1/2)")))) == pv("Sbar", "(3,inf)")
    assert sum_sequence(s, SeqGen(head=[pv("S", "(2,1/2)")], tail=Repeat(pv("S", "(1,5)")))) == pv("S", "(2,1/2)")
    assert sum_sequence(s, SeqGen(head=[pv("S", "(1,1/4)")], tail=Repeat(pv("S", "(1,1/2)")))) == pv("S", "(1,inf)")

    # suprema of residue ramps
    assert sup_sequence(s, SeqGen(tail=ResidueRamp(6, pv("Rc", "1")))) == pv("S", "(6,inf)")
    with pytest.raises(NotRepresentableError):
        sup_sequence(parse_struct("P"), SeqGen(tail=ResidueRamp(0, pv("Ro", "1"))))

    # finite sups equal maxima in iterated lexicographic products of naturals
    checked = 0
    for n in range(1, 5):
        struct = "N0"
        for _ in range(n - 1):
            struct = f"({struct}) \\/ N0"
        d = parse_struct(struct)

        def mk(point):
            v = Scalar(point[0])
            for c in point[1:]:
                v = Pair(v, Scalar(c))
            return v

        grid = [mk(p) for p in itertools.product(range(5), repeat=n)]

        def brute_max(vals):
            best = vals[0]
            for v in vals[1:]:
                if ops.cmp(d, v, best) > 0:
                    best = v
            return best

        for v in grid:  # singletons
            assert sup_finite(d, [v]) == v
            checked += 1
        for a, b in itertools.combinations(grid, 2):  # every pair
            assert sup_finite(d, [a, b]) == brute_max([a, b])
            checked += 1
        small = [mk(p) for p in itertools.product(range(2), repeat=n)]
        for size in range(3, 7):  # exhaustive over the 2^n sub-grid
            for combo in itertools.combinations(small, size):
                assert sup_finite(d, list(combo)) == brute_max(list(combo))
                checked += 1
        rng = random.Random(60 + n)  # seeded samples of larger subsets
        for _ in range(1500):
            size = rng.randrange(3, min(7, len(grid) + 1))
            combo = rng.sample(grid, size)
            assert sup_finite(d, combo) == brute_max(combo)
            checked += 1
    print(f"\nACCEPTANCE 6: PASS - sums/sups match closed forms ({checked} finite-sup checks)")


def test_criterion_7_measure_roundtrips():
    results = measure_laws(seed=7, cases=1000)
    for r in results:
        assert r.ok, r.line()
    roundtrip = next(r for r in results if r.law == "slice_recover_roundtrip")
    assert roundtrip.cases >= 1000

    # finite additivity, exhaustive over all disjoint event pairs
    d = parse_struct("O")
    rng = random.Random(70)
    checked = 0
    for n_atoms in (4, 7, 10):
        atoms = [f"a{i}" for i in range(n_atoms)]
        values = {}
        for a in atoms:
            if rng.random() < 0.2:
                values[a] = ZERO
            else:
                values[a] = Pair(
                    Scalar(rng.randrange(-3, 4)),
                    Scalar(XReal(rng.randrange(1, 9), rng.randrange(1, 6))),
                )
        m = LMeasure(d, AtomSpace(atoms), values)
        for marks in itertools.product(range(3), repeat=n_atoms):
            e = [a for a, mk in zip(atoms, marks) if mk == 0]
            f = [a for a, mk in zip(atoms, marks) if mk == 1]
            assert m.value(e + f) == ops.add(d, m.value(e), m.value(f))
            checked += 1

    # align and shift normal forms
    for _ in range(200):
        n = rng.randrange(1, 7)
        atoms = [f"b{i}" for i in range(n)]
        values = {
            a: Pair(Scalar(rng.randrange(-5, 6)), Scalar(XReal(rng.randrange(1, 9)))) for a in atoms
        }
        m = LMeasure(d, AtomSpace(atoms), values)
        aligned = align_levels(m)
        assert is_proximal(aligned)
        assert align_levels(aligned).atom_values == aligned.atom_values
        k = rng.randrange(-4, 5)
        assert shift_levels(shift_levels(m, k), -k).atom_values == m.atom_values
    print(f"\nACCEPTANCE 7: PASS - slice/recover x1000, additivity exhaustive on {checked} event pairs")


def test_criterion_8_integration():
    d = parse_struct("O")
    space = AtomSpace(["u", "v", "y"])
    point_mass = LMeasure(
        d,
        space,
        {"u": pv("O", "(0,1/2)"), "v": pv("O", "(0,1/2)"), "y": pv("O", "(-1,1)")},
    )
    from lexiring.integrate import SimpleFunction, integrate_lvalued

    delta = SimpleFunction.lvalued(d, {"u": ZERO, "v": ZERO, "y": pv("O", "(1,1)")})
    assert integrate_lvalued(point_mass, delta, ("y",)) == pv("O", "(0,1)")
    assert integrate_lvalued(point_mass, delta, space.atoms) == pv("O", "(0,1)")

    results = integrate_laws(seed=8, cases=1000)
    for r in results:
        assert r.ok, r.line()
        assert r.cases >= 1000
    print("\nACCEPTANCE 8: PASS - point-mass integral (0,1); oracle/additivity/negation x1000")


def test_criterion_9_tree_metrics():
    results = tree_laws(seed=9, cases=200)
    for r in results:
        assert r.ok, r.line()
        assert r.cases >= 200
    print("\nACCEPTANCE 9: PASS - 200 seeded trees: metric, additivity, meet oracle")


def test_criterion_10_weights():
    rng = random.Random(10)
    for name in BUILTIN_TRACKS:
        g, w, c = load_track(name)
        report = check_branch_equations(g, w, c)
        assert report["ok"], (name, report)
        for _ in range(100):
            lam = nonzero_value(rng, w.desc)
            assert check_branch_equations(g, apply_deck(w, lam), c)["ok"]
        for _ in range(25):
            sector = rng.choice(g.sectors)
            w2, c2 = gauge_move(g, w, c, sector, nonzero_value(rng, w.desc))
            assert check_branch_equations(g, w2, c2) == report
    extra = weights_laws(seed=10, cases=100)
    for r in extra:
        assert r.ok, r.line()
    print("\nACCEPTANCE 10: PASS - 3 example files, 100 deck scalars each, gauge moves")


def test_criterion_11_cli(capsys):
    from test_cli import GOLDEN_CASES

    for golden, argv in sorted(GOLDEN_CASES.items()):
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / golden).read_text()

    structs = [
        "S", "O", "P", "Obar", "Sn(2)", "On(2)", "Pn(2)", "Pn(3)",
        r"N0 \/ N0", r"(N0 \/ N0) /\ Rc", r"N0 /\ (N0 /\ N0)", "double(O)",
        "mixed(Z; -2..2; default:Rc)",
    ]
    rng = random.Random(11)
    descs = [parse_struct(s) for s in structs]
    for _ in range(10_000):
        dd = rng.choice(descs)
        v = random_value(rng, dd)
        text = format_value(dd, v)
        assert parse_value(dd, text) == v
        assert format_value(dd, parse_value(dd, text)) == text

    assert main(["--format", "json", "selfcheck", "--seed", "5", "--cases", "40"]) == 0
    first = capsys.readouterr().out
    assert main(["--format", "json", "selfcheck", "--seed", "5", "--cases", "40"]) == 0
    assert capsys.readouterr().out == first
    print("\nACCEPTANCE 11: PASS - goldens bit-exact, 10^4 literal roundtrips, selfcheck deterministic")
