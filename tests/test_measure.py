"""Measures on atom spaces: evaluation, slices, level bookkeeping."""

import random

import pytest

from lexiring.descriptors import parse_struct
from lexiring.errors import DomainError, InconsistentSlicesError, LexiringError, ShapeError
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
from lexiring.kernel import kernel_of
from lexiring.laws import random_value
from lexiring.ops import require_shiftable
from lexiring.prob import bayes, cond_prob, level_masses, standardize, validate_probability
from lexiring.scenes import builtin_scene
from lexiring.values import TOP, ZERO, Pair, Scalar, parse_value, stack_levels
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
        assert verify_open_graded(k)


@pytest.mark.parametrize("struct", ["S", "O", "P", "Obar", "Sbar"])
def test_shift_and_align_build_what_the_checking_constructor_accepts(struct):
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


def test_shift_levels_reports_the_first_failure_in_atom_order():
    d = parse_struct("S")
    m = LMeasure(d, AtomSpace(["a", "b"]), {"a": pv("S", "(1,1)"), "b": pv("S", "(0,1)")})
    with pytest.raises(ShapeError, match=r"^negative value -1 in N0$"):  # b's -2 comes later in atom order
        shift_levels(m, -2)
    with pytest.raises(ShapeError, match=r"^negative value -1 in N0$"):  # likewise once the levels are relabeled
        shift_levels(shift_levels(m, 3), -5)


class _CountingDict(dict):
    """A dict that counts the reads of its entries."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def items(self):
        self.reads += 1
        return super().items()

    def values(self):
        self.reads += 1
        return super().values()

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def test_writes_share_the_kept_values_and_touch_no_atom():
    d = parse_struct("O")
    rng = random.Random("writes")
    atoms = [f"a{i}" for i in range(200)]
    values = _CountingDict({a: random_value(rng, d) for a in atoms})
    m = LMeasure._built(d, AtomSpace(atoms), values)
    m.attained_levels()  # lists the attained levels: the one scan of the atoms
    values.reads = 0
    for _ in range(50):
        m = align_levels(shift_levels(m, rng.choice((-2, -1, 1, 2))))
        assert m._values is values
    assert values.reads == 0
    assert is_proximal(m)
    with pytest.raises(TypeError):
        m.atom_values["a0"] = ZERO


# ---------------------------------------------------------------------------
# relabeled writes against the per-atom rebuild they replace
# ---------------------------------------------------------------------------

def _rebuilt_shift(m, k):
    """Every pair rebuilt at its new level; each distinct new level checked once, in atom order."""
    d, moved, values = m.desc, {}, {}
    for a, v in m.atom_values.items():
        if v is not ZERO and v is not TOP:
            if not moved:
                require_shiftable(d)
            lev = v.level.x
            if lev not in moved:
                moved[lev] = kernel_of(d.a).check(Scalar(lev + k))
            v = Pair(moved[lev], v.residue)
        values[a] = v
    return LMeasure._built(d, m.space, values)


def _rebuilt_align(m):
    """Every pair rebuilt at its level with the interior gaps closed below the top."""
    levels = sorted({v.level.x for v in m.atom_values.values() if isinstance(v, Pair)})
    if not levels:
        return m
    remap = {lev: Scalar(levels[-1] - rank) for rank, lev in enumerate(reversed(levels))}
    return LMeasure._built(m.desc, m.space, {a: Pair(remap[v.level.x], v.residue) if isinstance(v, Pair) else v
                                             for a, v in m.atom_values.items()})


def _outcome(f, *args):
    """f's result, or the type and message of the library error it raised."""
    try:
        return f(*args)
    except LexiringError as e:
        return type(e), str(e)


def _standard_form(m):
    pm = standardize(m)
    return -pm.attained_levels()[0], dict(pm.atom_values)


def _random_measure(rng, struct):
    """Random values; over P each level carries mass one, over Pn(n) every level vector is at most 0."""
    d = parse_struct(struct)
    atoms = [f"a{i}" for i in range(rng.randrange(1, 12))]
    n = kernel_of(d).prob_depth
    if n is None or n == 1:
        values = {a: random_value(rng, d) for a in atoms}
        if n == 1:
            mass = level_masses(LMeasure(d, AtomSpace(atoms), values))
            values = {a: v if v is ZERO else Pair(v.level, Scalar(v.residue.x / mass[v.level.x]))
                      for a, v in values.items()}
    else:
        values = {a: ZERO if rng.random() < 0.15 else
                  stack_levels(tuple(rng.randrange(-3, 1) for _ in range(n)), XReal(1, len(atoms) + 1))
                  for a in atoms}
    return LMeasure(d, AtomSpace(atoms), values)


def _assert_same_measure(rng, got, want):
    assert got.atom_values == want.atom_values
    assert got.attained_levels() == want.attained_levels()
    atoms = got.space.atoms
    events = [[a for a in atoms if rng.random() < 0.5] for _ in range(4)] + [atoms]
    for e in events:
        assert got.value(e) == want.value(e)
    for a, b in zip(events, events[1:]):
        assert _outcome(cond_prob, got, a, b) == _outcome(cond_prob, want, a, b)
    cells = [rng.randrange(3) for _ in atoms]
    partition = [[a for a, c in zip(atoms, cells) if c == i] for i in range(3)]
    assert _outcome(bayes, got, partition, events[0]) == _outcome(bayes, want, partition, events[0])
    for read in (level_masses, validate_probability, _standard_form):
        assert _outcome(read, got) == _outcome(read, want)


@pytest.mark.parametrize("struct", ["S", "O", "P", "Sbar", "Obar", "Pn(2)", "Pn(3)"])
def test_relabeled_writes_match_the_per_atom_rebuild(struct):
    rng = random.Random(f"relabel/{struct}")
    for _ in range(40):
        m = fast = slow = _random_measure(rng, struct)
        for _ in range(rng.randrange(1, 9)):
            if rng.random() < 0.5:
                k = rng.randrange(-4, 5)
                got, want = _outcome(shift_levels, fast, k), _outcome(_rebuilt_shift, slow, k)
            else:
                got, want = align_levels(fast), _rebuilt_align(slow)
            if isinstance(want, tuple):  # refused: the same error, and the chain goes on where it was
                assert got == want
                continue
            fast, slow = got, want
            assert fast._values is m._values
            _assert_same_measure(rng, fast, slow)


def test_the_checking_constructor_still_rejects_ill_shaped_values():
    d = parse_struct("P")
    with pytest.raises(ShapeError, match="inf does not belong"):
        LMeasure(d, AtomSpace(["a"]), {"a": Pair(Scalar(0), Scalar(INF))})
    with pytest.raises(ShapeError, match="insertion removes it"):
        LMeasure(d, AtomSpace(["a"]), {"a": Pair(Scalar(0), Scalar(XR_ZERO))})


@pytest.mark.parametrize("call, error, message", [
    (lambda: builtin_scene("dartboard").space.event("nope"), DomainError, "unknown event 'nope'"),
    (lambda: LMeasure(parse_struct("P"), AtomSpace(["a", "b"]), {"a": ZERO}), DomainError, "atoms without values: ['b']"),
    (lambda: LMeasure(parse_struct("P"), AtomSpace(["a"]), {"a": ZERO, "z": ZERO}), DomainError,
     "values for unknown atoms: ['z']"),
    (lambda: slice_at(LMeasure(parse_struct(r"N0 \/ Rc"), AtomSpace(["a"]), {"a": pv(r"N0 \/ Rc", "(1,1)")}), 0, ["a"]),
     ShapeError, "slices need an (integer level, rational residue) structure"),
    (lambda: recover_from_slices(parse_struct(r"N0 \/ Rc"), AtomSpace(["a"]), {}), ShapeError,
     "slices need an (integer level, rational residue) structure"),
    (lambda: IntervalPiece(0, INF, INF), DomainError, "interval start cannot be inf"),
    (lambda: IntervalPiece(0, XReal(2), XReal(1)), DomainError, "interval endpoints out of order"),
])
def test_measure_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
