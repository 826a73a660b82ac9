"""Branch equations, deck scaling, and multiplier cocycles."""

import random

import pytest

from lexiring.descriptors import parse_struct
from lexiring.errors import DomainError, ShapeError
from lexiring.laws import nonzero_value
from lexiring.values import ZERO, parse_value
from lexiring.weights import (
    BranchedGraph,
    Cocycle,
    WeightSystem,
    apply_deck,
    check_branch_equations,
    cocycle_join,
    cocycle_split,
    gauge_move,
)
from lexiring.xreal import XReal

from support import pv


def one_switch():
    return BranchedGraph(
        ["a", "b", "c"],
        [([("a", "r")], [("b", "l"), ("c", "l")])],
    )


def test_all_zero_weights_pass():
    g = one_switch()
    d = parse_struct("P")
    w = WeightSystem(d, {"a": ZERO, "b": ZERO, "c": ZERO})
    assert check_branch_equations(g, w, Cocycle(d, {}))["ok"]


def test_plain_sum_equation():
    g = one_switch()
    d = parse_struct("P")
    w = WeightSystem(d, {"a": pv("P", "(0,2)"), "b": pv("P", "(0,1)"), "c": pv("P", "(0,1)")})
    assert check_branch_equations(g, w, Cocycle(d, {}))["ok"]


def test_dominance_sum_equation():
    g = one_switch()
    d = parse_struct("P")
    w = WeightSystem(d, {"a": pv("P", "(1,2)"), "b": pv("P", "(1,2)"), "c": pv("P", "(0,5)")})
    assert check_branch_equations(g, w, Cocycle(d, {}))["ok"]


def test_failing_equation_reported():
    g = one_switch()
    d = parse_struct("P")
    w = WeightSystem(d, {"a": pv("P", "(0,2)"), "b": pv("P", "(0,1)"), "c": pv("P", "(0,2)")})
    report = check_branch_equations(g, w, Cocycle(d, {}))
    assert not report["ok"]
    assert report["switches"][0]["side1"] == "(0,2)"
    assert report["switches"][0]["side2"] == "(0,3)"


def test_multiplier_makes_equation_hold():
    g = one_switch()
    d = parse_struct("P")
    w = WeightSystem(d, {"a": pv("P", "(0,2)"), "b": pv("P", "(0,2)"), "c": pv("P", "(0,1)")})
    c = Cocycle(d, {("b", "l"): pv("P", "(0,1/2)")})
    assert check_branch_equations(g, w, c)["ok"]


def test_level_shift_multiplier():
    g = one_switch()
    d = parse_struct("P")
    w = WeightSystem(d, {"a": pv("P", "(1,4)"), "b": pv("P", "(2,4)"), "c": pv("P", "(0,5)")})
    c = Cocycle(d, {("b", "l"): pv("P", "(-1,1)")})
    assert check_branch_equations(g, w, c)["ok"]


def test_deck_examples():
    g = one_switch()
    d = parse_struct("P")
    w = WeightSystem(d, {"a": pv("P", "(1,2)"), "b": pv("P", "(1,2)"), "c": pv("P", "(0,5)")})
    down = apply_deck(w, pv("P", "(-1,1)"))
    assert down.weight("a") == pv("P", "(0,2)")
    assert down.weight("c") == pv("P", "(-1,5)")
    assert apply_deck(w, pv("P", "(0,1)")).weights == w.weights
    halved = apply_deck(w, pv("P", "(0,1/2)"))
    assert halved.weight("a") == pv("P", "(1,1)")


def test_deck_requires_invertible():
    d = parse_struct("O")
    w = WeightSystem(d, {"a": pv("O", "(0,2)")})
    with pytest.raises(DomainError):
        apply_deck(w, ZERO)
    with pytest.raises(DomainError):
        apply_deck(w, pv("O", "(0,inf)"))


def test_deck_invariance():
    g = one_switch()
    d = parse_struct("P")
    w = WeightSystem(d, {"a": pv("P", "(1,2)"), "b": pv("P", "(1,2)"), "c": pv("P", "(0,5)")})
    c = Cocycle(d, {})
    rng = random.Random(21)
    assert check_branch_equations(g, w, c)["ok"]
    for _ in range(50):
        lam = nonzero_value(rng, d)
        assert check_branch_equations(g, apply_deck(w, lam), c)["ok"]


def test_cocycle_split_examples():
    d = parse_struct("P")
    c = Cocycle(d, {("b", "l"): pv("P", "(-1,1)"), ("c", "l"): pv("P", "(0,1/2)")})
    levels, stretches = cocycle_split(c)
    assert levels == {("b", "l"): -1, ("c", "l"): 0}
    assert stretches == {("b", "l"): XReal(1), ("c", "l"): XReal(1, 2)}
    rejoined = cocycle_join(d, levels, stretches)
    assert rejoined.crossings == c.crossings


def test_cocycle_split_nested():
    d = parse_struct("Pn(2)")
    c = Cocycle(
        d,
        {("a", "l"): pv("Pn(2)", "(-1,0,1)"), ("b", "l"): pv("Pn(2)", "(0,-1,1)")},
    )
    levels, stretches = cocycle_split(c)
    assert levels == {("a", "l"): (-1, 0), ("b", "l"): (0, -1)}
    assert stretches == {("a", "l"): XReal(1), ("b", "l"): XReal(1)}
    assert cocycle_join(d, levels, stretches).crossings == c.crossings


@pytest.mark.parametrize("levels", [{("a", "x"): 1}, {}])
def test_cocycle_join_refuses_a_structure_without_probability_levels(levels):
    with pytest.raises(ShapeError, match="cocycle multipliers must live in a probability semifield"):
        cocycle_join(parse_struct("S"), levels, {("a", "x"): XReal(1)})


def test_gauge_move_preserves_report():
    rng = random.Random(22)
    d = parse_struct("P")
    for _ in range(40):
        g = BranchedGraph(
            ["a", "b", "c", "d"],
            [
                ([("a", "r")], [("b", "l"), ("c", "l")]),
                ([("b", "r"), ("d", "l")], [("c", "r")]),
            ],
        )
        w = WeightSystem(d, {s: rng.choice([ZERO, nonzero_value(rng, d)]) for s in g.sectors})
        c = Cocycle(d, {("b", "l"): nonzero_value(rng, d)})
        before = check_branch_equations(g, w, c)
        sector = rng.choice(g.sectors)
        unit = nonzero_value(rng, d)
        w2, c2 = gauge_move(g, w, c, sector, unit)
        after = check_branch_equations(g, w2, c2)
        assert before == after


def test_identity_cocycle_is_plain_weight_check():
    g = one_switch()
    d = parse_struct("P")
    w = WeightSystem(d, {"a": pv("P", "(0,3)"), "b": pv("P", "(0,1)"), "c": pv("P", "(0,2)")})
    ident = Cocycle(d, {("b", "l"): pv("P", "(0,1)"), ("c", "l"): pv("P", "(0,1)")})
    assert check_branch_equations(g, w, ident) == check_branch_equations(g, w, Cocycle(d, {}))


def test_duplicate_sector_end_rejected():
    with pytest.raises(DomainError):
        BranchedGraph(
            ["a", "b"],
            [([("a", "r")], [("b", "l")]), ([("a", "r")], [("b", "r")])],
        )


def _check(sectors, weights, cocycle):
    p = parse_struct("P")
    return lambda: check_branch_equations(BranchedGraph(sectors, []), WeightSystem(p, weights), cocycle)


@pytest.mark.parametrize("call, error, message", [
    (lambda: BranchedGraph(["a", "a"], []), DomainError, "sector identifiers must be distinct"),
    (lambda: BranchedGraph(["a"], [([], [("a", "r")])]), DomainError, "every switch side needs at least one sector-end"),
    (lambda: BranchedGraph(["a"], [([("z", "r")], [("a", "r")])]), DomainError, "unknown sector 'z' in a switch"),
    (_check(["a"], {}, Cocycle(parse_struct("Pn(2)"), {("a", "r"): parse_value(parse_struct("Pn(2)"), "(0,(0,1))")})),
     ShapeError, "cocycle multipliers and weights live in different structures"),
    (_check(["a"], {"z": parse_value(parse_struct("P"), "(0,1)")}, Cocycle(parse_struct("P"), {})),
     DomainError, "weight on unknown sector 'z'"),
    (lambda: cocycle_join(parse_struct("Pn(2)"), {("a", "r"): (1,)}, {("a", "r"): XReal(1)}), ShapeError,
     "level vector (1,) does not match nesting depth 2"),
])
def test_weight_system_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
