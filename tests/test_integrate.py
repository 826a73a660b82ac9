"""Integrals of atomwise functions, including the point-mass example."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

from lexiring.descriptors import parse_struct
from lexiring.errors import CapabilityError, DomainError, ShapeError
from lexiring.integrate import SimpleFunction, integrate_lvalued, integrate_real, integrate_signed
from lexiring.measure import AtomSpace, LMeasure
from lexiring.ops import add, neg
from lexiring.scenes import builtin_scene
from lexiring.values import TOP, ZERO, Pair, Scalar, parse_value
from lexiring.xreal import ONE, XReal
from lexiring.xreal import ZERO as XR_ZERO

from support import pv


def point_mass_scene():
    """Area at level 0 on two bulk atoms, a counting level -1 at the point y."""
    d = parse_struct("O")
    space = AtomSpace(["u", "v", "y"])
    return LMeasure(
        d,
        space,
        {"u": pv("O", "(0,1/2)"), "v": pv("O", "(0,1/2)"), "y": pv("O", "(-1,1)")},
    )


def test_unit_integral_is_total_mass():
    m = builtin_scene("dartboard")
    f = SimpleFunction.real({a: XReal(1) for a in m.space.atoms})
    assert integrate_real(m, f, m.space.atoms) == pv("P", "(0,1)")


def test_zero_function_integrates_to_zero():
    m = builtin_scene("dartboard")
    f = SimpleFunction.real({a: XR_ZERO for a in m.space.atoms})
    assert integrate_real(m, f, m.space.atoms) is ZERO


def test_single_level_matches_weighted_sum_oracle():
    d = parse_struct("O")
    rng = random.Random(5)
    for _ in range(200):
        atoms = [f"a{i}" for i in range(rng.randrange(1, 6))]
        space = AtomSpace(atoms)
        k0 = rng.randrange(-3, 4)
        residues = {a: XReal(rng.randrange(1, 9), rng.randrange(1, 5)) for a in atoms}
        m = LMeasure(d, space, {a: Pair(Scalar(k0), Scalar(residues[a])) for a in atoms})
        fvals = {a: XReal(rng.randrange(0, 5), rng.randrange(1, 4)) for a in atoms}
        got = integrate_real(m, SimpleFunction.real(fvals), atoms)
        expected = XR_ZERO
        for a in atoms:
            expected = expected + fvals[a] * residues[a]
        if expected.is_zero:
            assert got is ZERO
        else:
            assert got == Pair(Scalar(k0), Scalar(expected))


def test_point_mass_pairing():
    m = point_mass_scene()
    delta = SimpleFunction.lvalued(
        m.desc, {"u": ZERO, "v": ZERO, "y": pv("O", "(1,1)")}
    )
    assert integrate_lvalued(m, delta, ("y",)) == pv("O", "(0,1)")
    assert integrate_lvalued(m, delta, m.space.atoms) == pv("O", "(0,1)")


def test_point_mass_on_level_zero_function():
    m = point_mass_scene()
    f = SimpleFunction.lvalued(
        m.desc, {"u": ZERO, "v": ZERO, "y": pv("O", "(0,3/5)")}
    )
    assert integrate_lvalued(m, f, ("y",)) == pv("O", "(-1,3/5)")


def test_real_integral_over_point_mass_is_lebesgue():
    m = point_mass_scene()
    f = SimpleFunction.real({"u": XReal(2), "v": XReal(3), "y": XReal(7)})
    got = integrate_real(m, f, m.space.atoms)
    assert got == pv("O", "(0,5/2)")  # (2 + 3) / 2, the point contributes below level 0


def test_integrating_the_unit_gives_the_measure():
    m = builtin_scene("dartboard")
    g = SimpleFunction.lvalued(m.desc, {a: pv("P", "(0,1)") for a in m.space.atoms})
    b = m.space.event("upper")
    assert integrate_lvalued(m, g, b) == m.value(b)


def test_integral_additive_over_disjoint_events():
    m = builtin_scene("dartboard")
    rng = random.Random(6)
    g = SimpleFunction.lvalued(
        m.desc,
        {a: pv("P", f"({rng.randrange(-1, 2)},{rng.randrange(1, 7)})") for a in m.space.atoms},
    )
    atoms = m.space.atoms
    for _ in range(100):
        marks = [rng.randrange(3) for _ in atoms]
        e = [a for a, mk in zip(atoms, marks) if mk == 0]
        f_ev = [a for a, mk in zip(atoms, marks) if mk == 1]
        assert integrate_lvalued(m, g, e + f_ev) == add(
            m.desc, integrate_lvalued(m, g, e), integrate_lvalued(m, g, f_ev)
        )


def test_scaling_by_rational():
    m = builtin_scene("dartboard")
    f = SimpleFunction.real({a: XReal(i % 3, 1) for i, a in enumerate(m.space.atoms)})
    tripled = SimpleFunction.real({a: v * XReal(3) for a, v in f.values.items()})
    base = integrate_real(m, f, m.space.atoms)
    got = integrate_real(m, tripled, m.space.atoms)
    assert got == Pair(base.level, Scalar(base.residue.x * XReal(3)))


def test_signed_split_cases():
    d = parse_struct("double(O)")
    m = point_mass_scene()
    f = SimpleFunction.signed(
        d, {"u": pv("double(O)", "(1,3/4)"), "v": pv("double(O)", "-(1,1/4)"), "y": ZERO}
    )
    assert integrate_signed(m, f, m.space.atoms) == pv("double(O)", "(1,1/4)")


def test_signed_equal_parts_cancel():
    d = parse_struct("double(O)")
    m = point_mass_scene()
    f = SimpleFunction.signed(
        d, {"u": pv("double(O)", "(0,1)"), "v": pv("double(O)", "-(0,1)"), "y": ZERO}
    )
    assert integrate_signed(m, f, m.space.atoms) is ZERO


def test_signed_nonnegative_matches_unsigned():
    d = parse_struct("double(O)")
    m = point_mass_scene()
    vals = {"u": pv("double(O)", "(0,2)"), "v": pv("double(O)", "(0,1/3)"), "y": ZERO}
    f = SimpleFunction.signed(d, vals)
    unsigned = SimpleFunction.lvalued(m.desc, {a: (ZERO if v is ZERO else v.mag) for a, v in vals.items()})
    got = integrate_signed(m, f, m.space.atoms)
    assert got.sign == 1 and got.mag == integrate_lvalued(m, unsigned, m.space.atoms)


def test_signed_negation_symmetry():
    d = parse_struct("double(O)")
    m = point_mass_scene()
    rng = random.Random(9)
    for _ in range(50):
        vals = {}
        for a in m.space.atoms:
            if rng.random() < 0.3:
                vals[a] = ZERO
            else:
                lit = f"({rng.randrange(-2, 3)},{rng.randrange(1, 6)})"
                sign = "-" if rng.random() < 0.5 else ""
                vals[a] = pv("double(O)", sign + lit)
        f = SimpleFunction.signed(d, vals)
        fneg = SimpleFunction.signed(d, {a: neg(d, v) for a, v in vals.items()})
        assert integrate_signed(m, fneg, m.space.atoms) == neg(d, integrate_signed(m, f, m.space.atoms))


def test_missing_atom_value_is_error():
    m = point_mass_scene()
    f = SimpleFunction.real({"u": XReal(1)})
    with pytest.raises(DomainError):
        integrate_real(m, f, m.space.atoms)


MISSING_ATOM_SCRIPT = """
from lexiring.descriptors import parse_struct
from lexiring.errors import LexiringError
from lexiring.integrate import SimpleFunction, integrate_lvalued, integrate_real, integrate_signed
from lexiring.measure import AtomSpace, LMeasure
from lexiring.values import parse_value
from lexiring.xreal import XReal

atoms = ["a", "b", "c", "d"]
d, o, dd = parse_struct("Obar"), parse_struct("O"), parse_struct("double(O)")
m = LMeasure(d, AtomSpace(atoms), {a: parse_value(d, t) for a, t in zip(atoms, ("top", "(0,1)", "(1,1)", "(0,2)"))})
for integrate, f in ((integrate_real, SimpleFunction.real({"a": XReal(1), "b": XReal(2)})),
                     (integrate_lvalued, SimpleFunction.lvalued(o, {a: parse_value(o, "(0,1)") for a in "ab"})),
                     (integrate_signed, SimpleFunction.signed(dd, {"a": parse_value(dd, "(0,1)"),
                                                                   "b": parse_value(dd, "-(0,2)")}))):
    try:
        print(integrate(m, f, atoms))
    except LexiringError as exc:
        print(f"{type(exc).__name__}: {exc}")
"""


def test_missing_atom_errors_do_not_depend_on_the_hash_seed():
    # the functions miss atoms c and d, and atom a is top: each integral names c, under every seed
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    for seed in range(8):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", MISSING_ATOM_SCRIPT], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out.splitlines() == ["DomainError: function has no value at atom 'c'"] * 3, seed


def _dartboard_integral(integrate, f):
    m = builtin_scene("dartboard")
    return lambda: integrate(m, f(m.space.atoms), m.space.atoms)


def _one_atom_integral(struct, value, integrate, f):
    d = parse_struct(struct)
    return lambda: integrate(LMeasure(d, AtomSpace(["a"]), {"a": parse_value(d, value)}), f, ["a"])


@pytest.mark.parametrize("call, error, message", [
    (lambda: SimpleFunction.real({"a": 1}), ShapeError, "real-valued functions take extended rationals, got 1"),
    (_one_atom_integral(r"N0 \/ Rc", "(1,1)", integrate_real, SimpleFunction.real({"a": ONE})),
     CapabilityError, "integration needs an (integer level, rational residue) measure"),
    (_dartboard_integral(integrate_real, lambda atoms: SimpleFunction.lvalued(parse_struct("P"), {})),
     ShapeError, "expected a real-valued function"),
    (_dartboard_integral(integrate_lvalued, lambda atoms: SimpleFunction.real({})),
     ShapeError, "expected a structure-valued function"),
    (_dartboard_integral(integrate_lvalued, lambda atoms: SimpleFunction.lvalued(parse_struct("N0"), {a: Scalar(1) for a in atoms})),
     CapabilityError, "cannot integrate values of N0"),
    (_dartboard_integral(integrate_lvalued, lambda atoms: SimpleFunction.lvalued(parse_struct(r"Rc /\ Rc"), {a: ZERO for a in atoms})),
     CapabilityError, "integrand must be a right-nested integer-leveled structure"),
    (_dartboard_integral(integrate_lvalued, lambda atoms: SimpleFunction.lvalued(parse_struct("Obar"), {a: TOP for a in atoms})),
     DomainError, "a top-valued integrand has no level partition"),
    (_dartboard_integral(integrate_signed, lambda atoms: SimpleFunction.real({})), ShapeError, "expected a signed function"),
    (_one_atom_integral("Obar", "top", integrate_signed, SimpleFunction.signed(parse_struct("double(O)"), {"a": pv("double(O)", "(0,1)")})),
     DomainError, "signed integral with an unbounded part is undefined"),
])
def test_integration_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
