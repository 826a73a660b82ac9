"""Measures on atom spaces: evaluation, slices, level bookkeeping."""

import random

import pytest

from lexiring.descriptors import parse_struct
from lexiring.errors import DomainError, InconsistentSlicesError, ShapeError
from lexiring.graded import GradedIntervalSet, IntervalPiece, graded_measure, verify_open_graded
from lexiring.measure import (
    AtomSpace,
    LMeasure,
    align_levels,
    is_proximal,
    recover_from_slices,
    shift_levels,
    slice_at,
    total_height,
)
from lexiring.scenes import builtin_scene
from lexiring.values import TOP, ZERO, Pair, Scalar, parse_value
from lexiring.xreal import INF, XReal
from lexiring.xreal import ZERO as XR_ZERO


def pv(struct, text):
    return parse_value(parse_struct(struct), text)


def test_dartboard_event_values():
    m = builtin_scene("dartboard")
    assert m.value(m.space.event("upper")) == pv("P", "(0,1/2)")
    assert m.value(()) is ZERO
    assert m.total() == pv("P", "(0,1)")
    assert m.value(m.space.event("cross")) == pv("P", "(-1,1)")


def test_unknown_atom_rejected():
    m = builtin_scene("dartboard")
    with pytest.raises(DomainError):
        m.value(("nope",))


def test_slices_on_dartboard():
    m = builtin_scene("dartboard")
    y = m.space.event("cross")
    assert slice_at(m, -1, y) == XReal(1)
    assert slice_at(m, 0, y) == XR_ZERO
    assert slice_at(m, -2, y) == INF
    assert slice_at(m, 0, ()) == XR_ZERO


def test_slice_recover_roundtrip_dartboard():
    m = builtin_scene("dartboard")
    slices = {
        k: {a: slice_at(m, k, (a,)) for a in m.space.atoms}
        for k in (0, -1)
    }
    got = recover_from_slices(m.desc, m.space, slices)
    assert got.atom_values == m.atom_values


def test_recover_examples():
    d = parse_struct("O")
    space = AtomSpace(["a"])
    got = recover_from_slices(d, space, {0: {"a": XR_ZERO}, -1: {"a": XR_ZERO}})
    assert got.atom_values["a"] is ZERO
    got = recover_from_slices(d, space, {0: {"a": XReal(1, 4)}, -1: {"a": INF}})
    assert got.atom_values["a"] == pv("O", "(0,1/4)")
    with pytest.raises(InconsistentSlicesError):
        recover_from_slices(d, space, {0: {"a": INF}})


def test_total_height():
    assert total_height(builtin_scene("dartboard")) == 2
    assert total_height(builtin_scene("dartboard-depth2")) == 3
    d = parse_struct("O")
    single = LMeasure(d, AtomSpace(["a"]), {"a": pv("O", "(5,1)")})
    assert total_height(single) == 1
    zero_m = LMeasure(d, AtomSpace(["a"]), {"a": ZERO})
    with pytest.raises(DomainError):
        total_height(zero_m)


def test_align_closes_interior_gap():
    d = parse_struct("O")
    space = AtomSpace(["a", "b"])
    m = LMeasure(d, space, {"a": pv("O", "(0,1)"), "b": pv("O", "(-2,1)")})
    got = align_levels(m)
    assert got.atom_values == {"a": pv("O", "(0,1)"), "b": pv("O", "(-1,1)")}
    assert is_proximal(got)


def test_align_natural_levels_pull_up():
    d = parse_struct("S")
    space = AtomSpace(["a", "b"])
    m = LMeasure(d, space, {"a": pv("S", "(5,1)"), "b": pv("S", "(2,1)")})
    got = align_levels(m)
    assert got.atom_values == {"a": pv("S", "(5,1)"), "b": pv("S", "(4,1)")}


def test_align_identity_cases():
    d = parse_struct("O")
    space = AtomSpace(["a"])
    single = LMeasure(d, space, {"a": pv("O", "(5,1)")})
    assert align_levels(single).atom_values == single.atom_values
    m = builtin_scene("dartboard")
    assert align_levels(m).atom_values == m.atom_values  # already proximal
    again = align_levels(align_levels(m))
    assert again.atom_values == m.atom_values


def test_shift_levels():
    m = builtin_scene("dartboard")
    up = shift_levels(m, 1)
    assert up.attained_levels() == [0, 1]
    assert shift_levels(up, -1).atom_values == m.atom_values
    assert shift_levels(m, 0).atom_values == m.atom_values


def test_finite_additivity_exhaustive_small():
    m = builtin_scene("dartboard")
    atoms = m.space.atoms
    rng = random.Random(3)
    for _ in range(300):
        assignment = [rng.randrange(3) for _ in atoms]
        e = [a for a, g in zip(atoms, assignment) if g == 0]
        f = [a for a, g in zip(atoms, assignment) if g == 1]
        lhs = m.value(e + f)
        from lexiring.ops import add

        assert lhs == add(m.desc, m.value(e), m.value(f))


def test_level_bound_invariant():
    m = builtin_scene("dartboard")
    top_level = m.total().level.x
    rng = random.Random(4)
    for _ in range(100):
        ev = [a for a in m.space.atoms if rng.random() < 0.5]
        v = m.value(ev)
        if v is not ZERO:
            assert v.level.x <= top_level


def test_bar_valued_measure_top_atom():
    d = parse_struct("Obar")
    space = AtomSpace(["a", "b"])
    m = LMeasure(d, space, {"a": TOP, "b": pv("Obar", "(0,1)")})
    assert m.total() is TOP
    assert slice_at(m, 5, ("a",)) == INF


# ---------------------------------------------------------------------------
# the canonical graded example
# ---------------------------------------------------------------------------

def test_graded_interval_measure():
    e = GradedIntervalSet([IntervalPiece(2, XReal(1, 2), XReal(3, 4))])
    assert graded_measure(e) == Pair(Scalar(2), Scalar(XReal(1, 4)))


def test_graded_points_have_measure_zero():
    e = GradedIntervalSet(
        [IntervalPiece(1, XReal(1, 2), XReal(1, 2)), IntervalPiece(3, XReal(2), XReal(2))]
    )
    assert graded_measure(e) is ZERO


def test_graded_highest_positive_level_wins():
    e = GradedIntervalSet(
        [
            IntervalPiece(0, XReal(0), XReal(1)),
            IntervalPiece(2, XReal(1), XReal(3, 2)),
            IntervalPiece(5, XReal(1), XReal(1)),
        ]
    )
    assert graded_measure(e) == Pair(Scalar(2), Scalar(XReal(1, 2)))


def test_graded_cofinal_is_top():
    e = GradedIntervalSet([IntervalPiece(0, XReal(0), XReal(1))], cofinal=True)
    assert graded_measure(e) is TOP


def test_graded_unbounded_interval():
    e = GradedIntervalSet([IntervalPiece(1, XReal(2), INF)])
    assert graded_measure(e) == Pair(Scalar(1), Scalar(INF))


def test_graded_overlap_rejected():
    with pytest.raises(DomainError):
        GradedIntervalSet(
            [IntervalPiece(0, XReal(0), XReal(2)), IntervalPiece(0, XReal(1), XReal(3))]
        )


def test_open_graded_window():
    for k in range(-2, 3):
        assert verify_open_graded(k, window=2, grid=3)


@pytest.mark.parametrize("struct", ["S", "O", "P", "Obar", "Sbar"])
def test_shift_and_align_build_what_the_checking_constructor_accepts(struct):
    from lexiring.laws import random_value

    d = parse_struct(struct)
    rng = random.Random(f"rebuild/{struct}")
    atoms = [f"a{i}" for i in range(40)]
    m = LMeasure(d, AtomSpace(atoms), {a: random_value(rng, d) for a in atoms})
    lowest = m.attained_levels()[0]
    for k in (0, 1, 3, -lowest, -lowest - 2):
        if struct.startswith("S") and k < -lowest:
            continue  # an N0 level below 0: refused, see the next test
        for out in (shift_levels(m, k), align_levels(shift_levels(m, k))):
            rebuilt = LMeasure(d, m.space, out.atom_values)
            assert out.atom_values == rebuilt.atom_values and out.space is m.space


def test_shift_levels_checks_each_new_level():
    d = parse_struct("S")
    space = AtomSpace(["a", "b", "c", "z"])
    m = LMeasure(d, space, {"a": pv("S", "(1,2)"), "b": pv("S", "(3,1)"), "c": pv("S", "(1,1/2)"), "z": ZERO})
    assert shift_levels(m, -1).atom_values == {"a": pv("S", "(0,2)"), "b": pv("S", "(2,1)"),
                                               "c": pv("S", "(0,1/2)"), "z": ZERO}
    with pytest.raises(ShapeError, match="negative value -1 in N0"):
        shift_levels(m, -2)
    with pytest.raises(ShapeError, match="top level is not an integer"):
        shift_levels(LMeasure(parse_struct(r"Nbar0 /\ Rc"), AtomSpace(["a"]), {"a": pv(r"Nbar0 /\ Rc", "(1,2)")}), 1)
    zeros = LMeasure(parse_struct(r"Nbar0 /\ Rc"), AtomSpace(["z"]), {"z": ZERO})
    assert shift_levels(zeros, 1).atom_values == {"z": ZERO}  # nothing to move, nothing to refuse


def test_the_checking_constructor_still_rejects_ill_shaped_values():
    d = parse_struct("P")
    with pytest.raises(ShapeError, match="inf does not belong"):
        LMeasure(d, AtomSpace(["a"]), {"a": Pair(Scalar(0), Scalar(INF))})
    with pytest.raises(ShapeError, match="insertion removes it"):
        LMeasure(d, AtomSpace(["a"]), {"a": Pair(Scalar(0), Scalar(XR_ZERO))})
