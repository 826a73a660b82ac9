"""Depth probability: validation, standard form, conditioning, Bayes."""

import random
import time

import pytest

from lexiring.descriptors import parse_struct
from lexiring.errors import CapabilityError, DomainError, InfiniteMassError
from lexiring.integrate import SimpleFunction
from lexiring.laws import random_prob_scene, random_value
from lexiring.measure import AtomSpace, LMeasure, shift_levels
from lexiring.prob import (
    bayes,
    cond_prob,
    depth,
    level_masses,
    normalize_from_density,
    standardize,
    validate_probability,
)
from lexiring.scenes import builtin_scene
from lexiring.values import ZERO
from lexiring.xreal import INF, ONE, XReal

from support import pv


def test_validate_dartboard():
    m = builtin_scene("dartboard")
    report = validate_probability(m)
    assert report["ok"]
    assert report["level_masses"] == {"0": "1", "-1": "1"}
    assert report["empty_event_zero"]


def test_validate_bad_mass():
    d = parse_struct("P")
    space = AtomSpace(["a", "b"])
    m = LMeasure(d, space, {"a": pv("P", "(0,1)"), "b": pv("P", "(-1,3/4)")})
    report = validate_probability(m)
    assert not report["ok"]
    assert any("3/4" in f for f in report["failures"])


def test_level_masses_depth2():
    assert level_masses(builtin_scene("dartboard-depth2")) == {0: ONE, -1: ONE, -2: ONE}


def _folded_masses(m, n):
    """Each attained level (vector) and its mass, one XReal addition per atom, in the order the atoms attain them."""
    masses = {}
    for v in m.atom_values.values():
        if v is ZERO:
            continue
        vec = []
        for _ in range(n):
            vec.append(v.level.x)
            v = v.residue
        key = vec[0] if n == 1 else tuple(vec)
        masses[key] = masses.get(key, XReal(0)) + v.x
    return masses


@pytest.mark.parametrize("struct, n", [("P", 1), ("Pn(2)", 2), ("Pn(3)", 3)])
def test_level_masses_equal_a_fold_over_the_atoms(struct, n):
    d, rng = parse_struct(struct), random.Random(61 + n)
    for atoms in (1, 7, 400):
        space = AtomSpace([f"a{i}" for i in range(atoms)])
        m = LMeasure(d, space, {a: random_value(rng, d) for a in space.atoms})
        for scene in (m, shift_levels(m, -2)):
            masses = level_masses(scene)
            assert masses == _folded_masses(scene, n)
            assert list(masses) == list(_folded_masses(scene, n))
            assert all(type(mass) is XReal for mass in masses.values())


def test_validate_zero_measure_fails():
    d = parse_struct("P")
    m = LMeasure(d, AtomSpace(["a"]), {"a": ZERO})
    report = validate_probability(m)
    assert not report["ok"]
    assert any("identically zero" in f for f in report["failures"])


# ---------------------------------------------------------------------------
# conditional probability (the four walkthrough values)
# ---------------------------------------------------------------------------

def test_conditional_probabilities():
    m = builtin_scene("dartboard")
    assert cond_prob(m, m.space.event("cross"), m.space.event("upper")) == pv("P", "(-1,3/2)")
    assert cond_prob(m, m.space.event("upper_vray"), m.space.event("cross")) == pv("P", "(0,1/4)")
    inter = m.space.event("upper") & m.space.event("cross")
    assert cond_prob(m, m.space.event("upper_vray"), inter) == pv("P", "(0,1/3)")
    assert cond_prob(m, m.space.event("upper_vray"), m.space.event("upper")) == pv("P", "(-1,1/2)")


def test_conditioning_on_zero_event_fails():
    m = builtin_scene("dartboard")
    with pytest.raises(DomainError):
        cond_prob(m, m.space.event("cross"), ("center",))


@pytest.mark.parametrize("a, b, message", [
    (("zz", "q1"), ("q1",), "unknown atoms ['zz']"),
    (("q1",), ("q1", "yy"), "unknown atoms ['yy']"),
    (("zz",), ("yy",), "unknown atoms ['zz']"),  # A is checked before B
    ("q1", ("yy",), "an event is a list of atom ids, not the string 'q1'"),
])
def test_cond_prob_reports_an_unknown_atom_of_a_before_b(a, b, message):
    m = builtin_scene("dartboard")
    with pytest.raises(DomainError) as info:
        cond_prob(m, a, b)
    assert str(info.value) == message


def test_cond_prob_shift_invariant():
    m = builtin_scene("dartboard")
    a, b = m.space.event("upper_vray"), m.space.event("upper")
    want = cond_prob(m, a, b)
    for k in (-2, 1, 3):
        assert cond_prob(shift_levels(m, k), a, b) == want


# ---------------------------------------------------------------------------
# standard form and depth
# ---------------------------------------------------------------------------

def test_standardize_shifted_scene():
    m = shift_levels(builtin_scene("dartboard"), 3)  # levels {3, 2}
    pm = standardize(m)
    assert pm.attained_levels() == [-1, 0]
    assert -pm.attained_levels()[0] == 1
    assert pm.atom_values == builtin_scene("dartboard").atom_values


def test_standardize_already_standard():
    pm = standardize(builtin_scene("dartboard"))
    assert pm.atom_values == builtin_scene("dartboard").atom_values
    assert -pm.attained_levels()[0] == 1


def test_depth2_scene():
    pm = standardize(builtin_scene("dartboard-depth2"))
    assert -pm.attained_levels()[0] == 2
    assert depth(pm, ("center",)) == 2
    assert depth(pm, pm.space.event("cross")) == 1
    assert depth(pm, pm.space.event("upper")) == 0


def test_depth_examples():
    pm = standardize(builtin_scene("dartboard"))
    assert depth(pm, pm.space.event("cross")) == 1
    assert depth(pm, pm.space.event("upper")) == 0
    with pytest.raises(DomainError):
        depth(pm, ("center",))


# ---------------------------------------------------------------------------
# Bayes
# ---------------------------------------------------------------------------

def test_bayes_quadrants_horizontal_line():
    m = builtin_scene("dartboard")
    out = bayes(m, ["Q1", "Q2", "Q3", "Q4"], "hline")
    assert out["conditionals"]["Q1"] == pv("P", "(-1,1)")
    assert out["conditionals"]["Q2"] is ZERO
    assert out["conditionals"]["Q4"] is ZERO
    # computed directly from the scene; the third quadrant behaves like the first
    assert out["conditionals"]["Q3"] == pv("P", "(-1,1)")
    assert out["total"] == pv("P", "(-1,1/2)")
    assert out["posteriors"]["Q1"] == pv("P", "(0,1/2)")


def test_bayes_total_is_event_mass():
    m = builtin_scene("dartboard")
    out = bayes(m, ["Q1", "Q2", "Q3", "Q4"], "hline")
    assert out["total"] == m.value(m.space.event("hline"))


@pytest.mark.parametrize("given, checks", [("hline", 0), (sorted(builtin_scene("dartboard").space.event("hline")), 1)])
def test_bayes_reads_p_of_b_off_the_joints(monkeypatch, given, checks):
    # the cells are disjoint and cover the atoms, so P(B) is the sum of the joints, with no event checked again
    m, calls = builtin_scene("dartboard"), []
    check_event = AtomSpace.check_event
    monkeypatch.setattr(AtomSpace, "check_event", lambda space, ev: calls.append(ev) or check_event(space, ev))
    out = bayes(m, ["Q1", "Q2", "Q3", "Q4"], given)
    assert len(calls) == checks
    assert out["total"] == pv("P", "(-1,1/2)")


@pytest.mark.parametrize("fault, detail", [
    ("posteriors are the conditionals", "Bayes' rule failed for 'cell1'"),
    ("total doubled", "total probability law failed"),
    ("conditionals doubled", "total probability law failed"),
])
def test_prob_laws_catch_a_broken_bayes(monkeypatch, fault, detail):
    # bayes computes each quantity once; the law suite checks the law of total probability and Bayes' rule
    import lexiring.prob as prob_mod
    from lexiring.kernel import kernel_of
    from lexiring.laws import prob_laws

    real_bayes = prob_mod.bayes

    def planted(m, partition, B):
        out, k = real_bayes(m, partition, B), kernel_of(m.desc)
        if fault == "posteriors are the conditionals":
            out["posteriors"] = out["conditionals"]
        elif fault == "total doubled":
            out["total"] = k.add(out["total"], out["total"])
        else:
            out["conditionals"] = {name: k.add(c, c) for name, c in out["conditionals"].items()}
        return out

    assert [r.line() for r in prob_laws(0, 20)] == ["PASS prob: total_probability_and_shift (cases=20)"]
    monkeypatch.setattr(prob_mod, "bayes", planted)
    assert [r.line() for r in prob_laws(0, 20)] == [f"FAIL prob: total_probability_and_shift (cases=1) -- {detail}"]


def _scene_with_null_atoms(massive, null):
    """A P scene whose mass sits at level 0, in equal parts, on its first massive atoms, and then null atoms of 0."""
    atoms = [f"m{i}" for i in range(massive)] + [f"z{i}" for i in range(null)]
    part = pv("P", f"(0,1/{massive})")
    return LMeasure(parse_struct("P"), AtomSpace(atoms), {a: part if a[0] == "m" else ZERO for a in atoms})


@pytest.mark.parametrize("massive", [1, 2])
def test_prob_laws_pass_on_scenes_of_mostly_null_atoms(monkeypatch, massive):
    # one atom of mass leaves no two cells to draw and the case passes as it is; with two among thirty null atoms
    # the drawn B often misses both, has measure 0, and is widened by one atom of mass (or bayes would refuse it)
    import lexiring.laws as laws

    scene = _scene_with_null_atoms(massive, 30)
    monkeypatch.setattr(laws, "random_prob_scene", lambda rng: scene)
    assert [r.line() for r in laws.prob_laws(0, 20)] == ["PASS prob: total_probability_and_shift (cases=20)"]


def _doubled_scene(rng):
    from lexiring.kernel import kernel_of

    m = random_prob_scene(rng)
    k = kernel_of(m.desc)
    return LMeasure(m.desc, m.space, {a: k.add(v, v) for a, v in m.atom_values.items()})


@pytest.mark.parametrize("module, name, plant, detail", [
    ("lexiring.laws", "random_prob_scene", _doubled_scene, "generator produced an invalid scene"),
    ("lexiring.prob", "cond_prob", lambda m, A, B: m.value(set(A) & set(B)),  # P(A and B), never divided
     "conditional probability not shift invariant"),
])
def test_prob_laws_catch_a_bad_scene_or_conditioning(monkeypatch, module, name, plant, detail):
    import importlib

    from lexiring.laws import prob_laws

    monkeypatch.setattr(importlib.import_module(module), name, plant)
    [r] = prob_laws(0, 20)
    assert not r.ok and r.detail == detail, r.line()


def test_bayes_two_cell_symmetry():
    d = parse_struct("P")
    space = AtomSpace(["l", "r"], {"L": ["l"], "R": ["r"], "all": ["l", "r"]})
    m = LMeasure(d, space, {"l": pv("P", "(0,1/2)"), "r": pv("P", "(0,1/2)")})
    out = bayes(m, ["L", "R"], "all")
    assert out["posteriors"]["L"] == pv("P", "(0,1/2)")
    assert out["posteriors"]["R"] == pv("P", "(0,1/2)")


def test_bayes_order_independent():
    m = builtin_scene("dartboard")
    base = bayes(m, ["Q1", "Q2", "Q3", "Q4"], "hline")
    for order in (["Q4", "Q2", "Q1", "Q3"], ["Q3", "Q4", "Q1", "Q2"]):
        out = bayes(m, order, "hline")
        assert out["total"] == base["total"]
        assert out["posteriors"] == base["posteriors"]
        assert out["conditionals"] == base["conditionals"]


def test_bayes_partition_validation():
    m = builtin_scene("dartboard")
    with pytest.raises(DomainError):
        bayes(m, ["Q1", "Q2", "Q3"], "hline")  # does not cover
    with pytest.raises(DomainError):
        bayes(m, ["Q1", "Q1", "Q2", "Q3", "Q4"], "hline")  # overlaps


def _set_partitions(items):
    """All partitions of a list into nonempty cells."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield part + [[first]]


def test_law_of_total_probability_exhaustive_small():
    d = parse_struct("P")
    atoms = ["a", "b", "c", "d", "e"]
    space = AtomSpace(atoms)
    m = LMeasure(
        d,
        space,
        {
            "a": pv("P", "(0,1/2)"),
            "b": pv("P", "(0,1/2)"),
            "c": pv("P", "(-1,2/3)"),
            "d": pv("P", "(-1,1/3)"),
            "e": pv("P", "(-2,1)"),
        },
    )
    assert validate_probability(m)["ok"]
    from lexiring.ops import add, mul

    events = []
    for mask in range(1, 2 ** len(atoms)):
        events.append([x for i, x in enumerate(atoms) if mask >> i & 1])
    n_checked = 0
    for cells in _set_partitions(atoms):
        for b_ev in events:
            out = bayes(m, [list(c) for c in cells], b_ev)
            assert out["total"] == m.value(b_ev)
            acc = None
            for name in out["posteriors"]:
                term = mul(d, out["conditionals"][name], out["priors"][name])
                acc = term if acc is None else add(d, acc, term)
            assert acc == m.value(b_ev)
            n_checked += 1
    assert n_checked == 52 * 31  # every partition of 5 atoms, every nonempty event


def test_depth_range_invariant():
    pm = standardize(builtin_scene("dartboard-depth2"))
    atoms = pm.space.atoms
    for mask in range(1, 2 ** len(atoms)):
        ev = [a for i, a in enumerate(atoms) if mask >> i & 1]
        v = pm.value(ev)
        if v is not ZERO:
            assert 0 <= depth(pm, ev) <= -pm.attained_levels()[0]


# ---------------------------------------------------------------------------
# nested-level probability
# ---------------------------------------------------------------------------

def nested_scene():
    d = parse_struct("Pn(2)")
    space = AtomSpace(["a", "b", "c"])
    return LMeasure(
        d,
        space,
        {
            "a": pv("Pn(2)", "(0,0,1)"),
            "b": pv("Pn(2)", "(-1,0,1/2)"),
            "c": pv("Pn(2)", "(-1,-1,1)"),
        },
    )


def test_nested_validation_and_conditioning():
    m = nested_scene()
    assert validate_probability(m)["ok"]
    got = cond_prob(m, ("b",), ("b", "c"))
    assert got == pv("Pn(2)", "(0,0,1)")  # b dominates the union
    got2 = cond_prob(m, ("c",), ("b", "c"))
    assert got2 == pv("Pn(2)", "(0,-1,2)")


def test_nested_positive_component_fails():
    d = parse_struct("Pn(2)")
    space = AtomSpace(["a"])
    m = LMeasure(d, space, {"a": pv("Pn(2)", "(0,1,1)")})
    assert not validate_probability(m)["ok"]


def test_nested_standardize_shifts_to_zero_vector():
    d = parse_struct("Pn(2)")
    space = AtomSpace(["a", "b"])
    m = LMeasure(d, space, {"a": pv("Pn(2)", "(-1,-2,1)"), "b": pv("Pn(2)", "(-2,-1,1)")})
    pm = standardize(m)
    vecs = sorted(
        (v.level.x, v.residue.level.x) for v in pm.atom_values.values()
    )
    assert vecs == [(-1, 0), (0, -1)]


def test_depth_rejects_nested():
    with pytest.raises(CapabilityError):
        depth(standardize(nested_scene()), ("a",))


def test_too_deep_rejected():
    d = parse_struct("Pn(4)")
    space = AtomSpace(["a"])
    m = LMeasure(d, space, {"a": pv("Pn(4)", "(0,0,0,0,1)")})
    with pytest.raises(CapabilityError):
        validate_probability(m)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_unit_density_reproduces_scene():
    m = builtin_scene("dartboard")
    f = SimpleFunction.lvalued(m.desc, {a: pv("P", "(0,1)") for a in m.space.atoms})
    pm = normalize_from_density(m, f)
    assert pm.atom_values == m.atom_values


def test_density_renormalizes_levels():
    m = builtin_scene("dartboard")
    vals = {a: pv("P", "(0,2)") for a in ("q1", "q2")}
    vals.update({a: pv("P", "(0,2/3)") for a in ("q3", "q4")})
    vals.update({a: pv("P", "(0,1)") for a in ("rv_up", "rv_down", "rh_left", "rh_right")})
    vals["center"] = pv("P", "(0,1)")
    f = SimpleFunction.lvalued(m.desc, vals)
    pm = normalize_from_density(m, f)
    report = validate_probability(pm)
    assert report["ok"]
    # direct level-wise normalization oracle
    got_q1 = pm.atom_values["q1"]
    assert got_q1 == pv("P", "(0,3/8)")  # 1/2 / (4/3)
    assert pm.atom_values["rv_up"] == pv("P", "(-1,1/4)")


def test_real_density_renormalizes_each_level():
    m = builtin_scene("dartboard")
    f = SimpleFunction.real({a: XReal(3 if a == "q1" else 1) for a in m.space.atoms})
    got = normalize_from_density(m, f).atom_values
    assert got["q1"] == pv("P", "(0,1/2)")
    assert got["q2"] == got["q3"] == got["q4"] == pv("P", "(0,1/6)")


@pytest.mark.parametrize("scene, density, error, message", [
    (lambda: builtin_scene("dartboard"),
     lambda m: SimpleFunction.real({a: INF if a == "q2" else XReal(1) for a in m.space.atoms}),
     InfiniteMassError, "density integral has an infinite residue"),
    (lambda: builtin_scene("dartboard"),
     lambda m: SimpleFunction.signed(parse_struct("double(P)"), {a: ZERO for a in m.space.atoms}),
     CapabilityError, "signed densities do not define probability measures"),
    (nested_scene, lambda m: SimpleFunction.real({a: XReal(1) for a in m.space.atoms}),
     CapabilityError, "densities are supported over single-stack probability scenes"),
])
def test_density_refusals(scene, density, error, message):
    m = scene()
    with pytest.raises(error, match=message):
        normalize_from_density(m, density(m))


@pytest.mark.parametrize("struct", ["P", "Pn(2)"])
def test_all_zero_scene_is_not_a_probability_measure(struct):
    m = LMeasure(parse_struct(struct), AtomSpace(["a", "b"]), {"a": ZERO, "b": ZERO})
    with pytest.raises(DomainError, match="not a probability measure: the measure is identically zero"):
        standardize(m)
    if struct == "P":
        with pytest.raises(DomainError, match="the measure is identically zero"):
            depth(m, ("a",))


def test_a_normalized_density_builds_its_measure_unchecked(monkeypatch):
    # the quotients of checked integrals by positive finite masses are well-shaped; standardize validates them
    m, calls = builtin_scene("dartboard"), []
    f = SimpleFunction.real({a: XReal(3 if a == "q1" else 1) for a in m.space.atoms})
    init = LMeasure.__init__
    monkeypatch.setattr(LMeasure, "__init__", lambda self, *args: calls.append(args) or init(self, *args))
    pm = normalize_from_density(m, f)
    assert len(calls) == 0
    assert pm.atom_values["q1"] == pv("P", "(0,1/2)")


def test_density_with_level_shift():
    d = parse_struct("P")
    space = AtomSpace(["a", "b"])
    m = LMeasure(d, space, {"a": pv("P", "(0,1/2)"), "b": pv("P", "(0,1/2)")})
    f = SimpleFunction.lvalued(d, {"a": pv("P", "(1,1)"), "b": pv("P", "(0,1)")})
    pm = normalize_from_density(m, f)
    assert validate_probability(pm)["ok"]
    assert pm.atom_values["a"] == pv("P", "(0,1)")
    assert pm.atom_values["b"] == pv("P", "(-1,1)")


# ---------------------------------------------------------------------------
# one-pass Bayes against the per-cell route
# ---------------------------------------------------------------------------

def _fold(m, atoms):
    """The measure of a set of atoms by an explicit ops.add fold in atom order."""
    from lexiring.ops import add, zero

    acc = zero(m.desc)
    for a in m.space.atoms:
        if a in atoms:
            acc = add(m.desc, acc, m.atom_values[a])
    return acc


def _bayes_per_cell(m, cells, b_atoms):
    """Bayes the way it was computed before the one-pass version: per cell, value() and cond_prob()."""
    from lexiring.ops import add, divide, mul, zero
    from lexiring.values import is_zero

    d = m.desc
    conditionals, priors, terms, direct = {}, {}, {}, {}
    total = zero(d)
    for name, cell in cells.items():
        prior = m.value(cell)
        assert prior == _fold(m, cell)
        joint = _fold(m, cell & b_atoms)
        conditionals[name] = zero(d) if is_zero(d, joint) else divide(d, joint, prior)
        priors[name] = prior
        terms[name] = mul(d, conditionals[name], prior)
        total = add(d, total, terms[name])
        direct[name] = cond_prob(m, cell, b_atoms)
    posteriors = {n: zero(d) if is_zero(d, t) else divide(d, t, total) for n, t in terms.items()}
    assert posteriors == direct
    return {"conditionals": conditionals, "priors": priors, "total": total, "posteriors": posteriors}


def _random_p_scene(rng, n_atoms, n_zero=0, events=None):
    """A valid P scene over levels 0, -1 and -3 whose last n_zero atoms are 0."""
    from lexiring.values import format_value, stack_levels
    from lexiring.xreal import XReal

    d = parse_struct("P")
    atoms = [f"a{i}" for i in range(n_atoms)]
    weights = {a: (rng.choice((0, 0, -1, -3)), rng.randrange(1, 50)) for a in atoms[:n_atoms - n_zero]}
    totals = {}
    for lev, w in weights.values():
        totals[lev] = totals.get(lev, 0) + w
    values = {a: stack_levels((lev,), XReal(w, totals[lev])) for a, (lev, w) in weights.items()}
    values.update((a, ZERO) for a in atoms[n_atoms - n_zero:])
    m = LMeasure(d, AtomSpace(atoms, events), values)
    assert validate_probability(m)["ok"], format_value(d, m.total())
    return m


def _random_partition(rng, atoms, k):
    cells = {f"C{j}": set() for j in range(k)}
    for i, a in enumerate(atoms):
        cells[f"C{i if i < k else rng.randrange(k)}"].add(a)
    return {name: frozenset(c) for name, c in cells.items()}


def test_bayes_matches_the_per_cell_route_on_builtin_scenes():
    for scene, partitions in (("dartboard", (["Q1", "Q2", "Q3", "Q4"], ["Q4", "Q3", "Q2", "Q1"])),
                              ("dartboard-depth2", (["Q1", "Q2", "Q3", "Q4"],))):
        m = builtin_scene(scene)
        for names in partitions:
            cells = {n: m.space.event(n) for n in names}
            for b in sorted(m.space.events) + ["X", "q1"]:
                b_atoms = m.space.event(b)
                if m.value(b_atoms) is ZERO:
                    continue
                assert bayes(m, names, b) == _bayes_per_cell(m, cells, b_atoms), (scene, names, b)


def test_bayes_matches_the_per_cell_route_on_a_random_scene():
    import random

    rng = random.Random(20)
    m = _random_p_scene(rng, 200)
    atoms = m.space.atoms
    for k in (1, 2, 7, 30):
        cells = _random_partition(rng, atoms, k)
        for _ in range(4):
            b_atoms = frozenset(a for a in atoms if rng.random() < rng.choice((0.02, 0.3, 0.8)))
            if m.value(b_atoms) is ZERO:
                continue
            out = bayes(m, [cells[n] for n in cells], b_atoms)
            want = _bayes_per_cell(m, cells, b_atoms)
            # unnamed cells are called cell1, cell2, ... in partition order
            renamed = {key: dict(zip(cells, table.values())) for key, table in out.items() if key != "total"}
            assert renamed == {key: want[key] for key in renamed}
            assert out["total"] == want["total"] == m.value(b_atoms)


def test_bayes_partition_errors_keep_their_messages():
    d = parse_struct("P")
    space = AtomSpace(["a", "b", "c", "z"], {"A": ["a"], "B": ["b"], "AB": ["a", "b"], "C": ["c"],
                                             "Z": ["z"], "CZ": ["c", "z"], "ABZ": ["a", "b", "z"]})
    m = LMeasure(d, space, {"a": pv("P", "(0,1/2)"), "b": pv("P", "(0,1/2)"), "c": pv("P", "(-1,1)"), "z": ZERO})
    with pytest.raises(DomainError, match=r"^partition cells overlap at \['a', 'b', 'z'\]$"):
        bayes(m, ["AB", "CZ", "ABZ"], "X")
    with pytest.raises(DomainError, match=r"^partition does not cover the atom space$"):
        bayes(m, ["AB", "C"], "X")
    with pytest.raises(DomainError, match=r"^partition cell 'Z' has zero measure$"):
        bayes(m, ["AB", "C", "Z"], "X")
    # the zero cell comes before the overlapping one, and is reported first, as cell by cell
    with pytest.raises(DomainError, match=r"^partition cell 'Z' has zero measure$"):
        bayes(m, ["A", "Z", "AB", "C"], "X")
    with pytest.raises(DomainError, match=r"^partition cells overlap at \['a'\]$"):
        bayes(m, ["A", "AB", "Z", "C"], "X")
    with pytest.raises(DomainError, match=r"^conditioning on a zero-measure event$"):
        bayes(m, ["AB", "CZ"], "Z")
    with pytest.raises(DomainError, match=r"^partition cell names repeat$"):
        bayes(m, ["AB", "AB", "CZ"], "X")


def test_bayes_checks_a_fine_partition_in_linear_time():
    # 20,000 atoms in 20,000 singleton cells: a check that unions each cell into a new set of the cells before it
    # took 4.6 s on a 2-CPU x86_64 host under Python 3.11
    m = _random_p_scene(random.Random(30), 20000)
    atoms, given = m.space.atoms, m.space.atoms[::3]
    start = time.perf_counter()
    out = bayes(m, [[a] for a in atoms], given)
    assert time.perf_counter() - start < 1.5
    assert out["total"] == m.value(given)
    assert out["priors"]["cell1"] == m.value(atoms[:1]) and out["posteriors"]["cell2"] is ZERO
    assert out["posteriors"]["cell1"] == cond_prob(m, atoms[:1], given)


def _bayes_cell_by_cell(m, partition, B):
    """Bayes as the paper states it: each cell in partition order is checked against the cells before it
    and must have nonzero measure, the cells must cover the atoms, and the table is read per cell."""
    space, cells = m.space, {}
    for i, c in enumerate(partition):
        name, ev = (c, space.event(c)) if isinstance(c, str) else (f"cell{i + 1}", space.check_event(c))
        if name in cells:
            raise DomainError("partition cell names repeat")
        cells[name] = ev
    seen = frozenset()
    for name, ev in cells.items():
        if seen & ev:
            raise DomainError(f"partition cells overlap at {sorted(seen & ev)}")
        seen |= ev
        if m.value(ev) is ZERO:
            raise DomainError(f"partition cell {name!r} has zero measure")
    if seen != frozenset(space.atoms):
        raise DomainError("partition does not cover the atom space")
    b_atoms = space.event(B) if isinstance(B, str) else space.check_event(B)
    if m.value(b_atoms) is ZERO:
        raise DomainError("conditioning on a zero-measure event")
    return _bayes_per_cell(m, cells, b_atoms)


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except DomainError as exc:
        return "DomainError", str(exc)


def test_bayes_matches_a_cell_by_cell_reference_on_random_partitions():
    import random

    rng = random.Random(2020)
    seen = {}
    for case in range(400):
        n_atoms, n_zero = rng.randrange(4, 40), rng.randrange(0, 4)
        atoms = [f"a{i}" for i in range(n_atoms)]
        k = rng.randrange(1, 8)
        cells = [set() for _ in range(k)]
        for i, a in enumerate(atoms):
            cells[i if i < k else rng.randrange(k)].add(a)
        cells = [sorted(c) for c in cells if c]
        kind = rng.choice(("partition", "overlap", "uncover", "zero"))
        if kind == "overlap":  # a cell that meets those before it, anywhere in the order
            cells.insert(rng.randrange(len(cells) + 1), rng.sample(atoms, rng.randrange(1, 4)))
        elif kind == "uncover" and len(cells) > 1:
            cells.pop(rng.randrange(len(cells)))
        elif kind == "zero" and n_zero:  # the 0 atoms as a cell of their own
            zeros = set(atoms[n_atoms - n_zero:])
            cells = [sorted(set(c) - zeros) for c in cells if set(c) - zeros]
            cells.insert(rng.randrange(len(cells) + 1), sorted(zeros))
        events = {f"E{j}": c for j, c in enumerate(cells)}
        events["B"] = [a for a in atoms if rng.random() < rng.choice((0.1, 0.5, 0.9))]
        m = _random_p_scene(rng, n_atoms, n_zero, events)
        # each cell is named or set-valued; B is named, a set, an atom or everything
        partition = [f"E{j}" if rng.random() < 0.5 else frozenset(c) for j, c in enumerate(cells)]
        given = rng.choice(("B", frozenset(events["B"]), atoms[0], "X", frozenset(atoms[n_atoms - n_zero:])))
        got, want = _outcome(bayes, m, partition, given), _outcome(_bayes_cell_by_cell, m, partition, given)
        assert got == want, (case, partition, given)
        seen_as = "ok" if got[0] == "ok" else got[1].split(" '")[0].split(" at [")[0]  # the message, no names
        seen[seen_as] = seen.get(seen_as, 0) + 1
    assert len(seen) == 5 and min(seen.values()) >= 10, seen
