"""Countable sums and least upper bounds."""

import random

import pytest

from lexiring.descriptors import parse_struct
from lexiring.errors import DomainError, NotRepresentableError, NotSummableError
from lexiring.kernel import DENSE, NOTHING_ABOVE, ZERO_P, kernel_of
from lexiring.seq import LevelRamp, Repeat, ResidueRamp, SeqGen, least_positive, sum_sequence, sup_finite, sup_sequence
from lexiring.values import TOP, ZERO, Scalar, check_value, parse_value, zero
from lexiring.xreal import XReal


def pv(struct, text):
    return parse_value(parse_struct(struct), text)


def test_unbounded_levels_sum_to_top_in_bar():
    d = parse_struct("Obar")
    s = SeqGen(tail=LevelRamp(1, 1, Scalar(XReal(1))))
    assert sum_sequence(d, s) is TOP


def test_unbounded_levels_error_without_top():
    d = parse_struct("O")
    s = SeqGen(tail=LevelRamp(1, 1, Scalar(XReal(1))))
    with pytest.raises(NotSummableError):
        sum_sequence(d, s)


def test_dominant_head_term_wins():
    d = parse_struct("S")
    s = SeqGen(head=[pv("S", "(2,1/2)")], tail=Repeat(pv("S", "(1,5)")))
    assert sum_sequence(d, s) == pv("S", "(2,1/2)")


def test_constant_repeat_at_top_level():
    d = parse_struct("Sbar")
    s = SeqGen(tail=Repeat(pv("Sbar", "(3,1/2)")))
    assert sum_sequence(d, s) == pv("Sbar", "(3,inf)")


def test_repeat_not_summable_in_p():
    d = parse_struct("P")
    s = SeqGen(tail=Repeat(pv("P", "(0,1)")))
    with pytest.raises(NotSummableError):
        sum_sequence(d, s)


def test_finite_sum_and_empty():
    d = parse_struct("O")
    s = SeqGen(head=[pv("O", "(1,1/4)"), pv("O", "(1,1/2)"), pv("O", "(0,9)")])
    assert sum_sequence(d, s) == pv("O", "(1,3/4)")
    assert sum_sequence(d, SeqGen()) == zero(d)


def test_sup_residue_ramp_reaches_infinity():
    d = parse_struct("S")
    s = SeqGen(tail=ResidueRamp(4, pv("Rc", "1")))
    assert sup_sequence(d, s) == pv("S", "(4,inf)")


def test_sup_residue_ramp_not_representable_in_p():
    d = parse_struct("P")
    s = SeqGen(tail=ResidueRamp(0, pv("Ro", "1")))
    with pytest.raises(NotRepresentableError):
        sup_sequence(d, s)


def test_sup_residue_ramp_discrete_residues():
    # unbounded residues below a discrete level structure push one level up
    d = parse_struct(r"N0 /\ N0")
    s = SeqGen(tail=ResidueRamp(2, Scalar(1)))
    assert sup_sequence(d, s) == parse_value(d, "(3,1)")


def test_sup_level_ramp():
    assert sup_sequence(parse_struct("Obar"), SeqGen(tail=LevelRamp(0, 1, Scalar(XReal(1))))) is TOP
    with pytest.raises(NotRepresentableError):
        sup_sequence(parse_struct("O"), SeqGen(tail=LevelRamp(0, 1, Scalar(XReal(1)))))


def test_sup_finite_set_is_max():
    d = parse_struct(r"(N0 \/ N0) \/ N0")
    vals = [parse_value(d, t) for t in ("((0,1),2)", "((1,0),0)", "((0,4),4)")]
    assert sup_finite(d, vals) == parse_value(d, "((1,0),0)")


def test_least_positive():
    assert least_positive(parse_struct("N0")) == Scalar(1)
    assert least_positive(parse_struct(r"N0 \/ N0")) == parse_value(parse_struct(r"N0 \/ N0"), "(0,1)")
    with pytest.raises(NotRepresentableError):
        least_positive(parse_struct("Rc"))


def test_sup_head_dominates_tail():
    d = parse_struct("S")
    s = SeqGen(head=[pv("S", "(9,1)")], tail=ResidueRamp(4, pv("Rc", "1")))
    assert sup_sequence(d, s) == pv("S", "(9,1)")


def test_dominated_tail_need_not_be_summable():
    # a countable repeat does not evaluate in P, but the head's level dominates it
    d = parse_struct("P")
    s = SeqGen(head=[pv("P", "(1,1/2)"), pv("P", "(1,1/4)")], tail=Repeat(pv("P", "(0,1)")))
    assert sum_sequence(d, s) == pv("P", "(1,3/4)")
    with pytest.raises(NotSummableError):
        sum_sequence(d, SeqGen(head=[pv("P", "(0,1/2)")], tail=Repeat(pv("P", "(0,1)"))))


def test_least_positive_levels_are_well_shaped():
    d = parse_struct(r"Nbar0 /\ N0")
    assert check_value(d, least_positive(d)) == parse_value(d, "(0,1)")
    outer = parse_struct(r"N0 /\ (Nbar0 /\ N0)")
    check_value(outer, sup_sequence(outer, SeqGen(tail=ResidueRamp(0, parse_value(d, "(1,1)")))))


def test_sup_residue_ramp_steps_up_a_finite_nbar0_level():
    # the multiples (0,(1,k)) are bounded by (0,(2,1)), which lies below (1,(0,1))
    d = parse_struct(r"N0 /\ (Nbar0 /\ N0)")
    step = pv(r"Nbar0 /\ N0", "(1,1)")
    lub = sup_sequence(d, SeqGen(tail=ResidueRamp(0, step)))
    assert lub == pv(r"N0 /\ (Nbar0 /\ N0)", "(0,(2,1))")
    assert check_value(d, lub) is lub
    # an infinite level has no level above it: the bound moves up the outer level
    inf_step = pv(r"Nbar0 /\ N0", "(inf,1)")
    assert sup_sequence(d, SeqGen(tail=ResidueRamp(0, inf_step))) == pv(r"N0 /\ (Nbar0 /\ N0)", "(1,(0,1))")


@pytest.mark.parametrize("struct, step, lub", [
    # a full product keeps zero residues: one level up, the least element has residue 0
    (r"N0 /\ (N0 \/ N0)", (r"N0 \/ N0", "(0,1)"), "(0,(1,0))"),
    (r"N0 /\ (Nbar0 \/ N0)", (r"Nbar0 \/ N0", "(1,1)"), "(0,(2,0))"),
    # Z has a level above every integer level, although not every set of Z has a least element
    (r"Z /\ N0", ("N0", "1"), "(1,1)"),
    # nothing lies above the level inf: the outer level steps up, to the inner least positive element
    (r"N0 /\ (Rc /\ N0)", (r"Rc /\ N0", "(inf,1)"), "(1,(0,1))"),
    # in a bar pairing the adjoined top lies above the level inf, and nothing else does
    (r"N0 /\ (Rc b/\ N0)", (r"Rc b/\ N0", "(inf,1)"), "(0,top)"),
    (r"N0 /\ (Nbar0 b/\ N0)", (r"Nbar0 b/\ N0", "(inf,1)"), "(0,top)"),
    (r"N0 /\ mixed(N0; 0..2; default:Rc)", ("mixed(N0; 0..2; default:Rc)", "(0,1)"), "(0,(0,inf))"),
    # a composite level steps up through its own residue, then its level
    (r"N0 /\ ((N0 \/ N0) /\ N0)", (r"(N0 \/ N0) /\ N0", "((0,0),1)"), "(0,((0,1),1))"),
    # nothing lies above the level (inf,inf): the outer level steps up, to the inner least positive element
    (r"N0 /\ ((Nbar0 \/ Nbar0) /\ N0)", (r"(Nbar0 \/ Nbar0) /\ N0", "((inf,inf),1)"), "(1,((0,0),1))"),
    # a mixed level steps up to the next level of its range that carries residues
    (r"N0 /\ mixed(N0; 0..2; default:N0)", ("mixed(N0; 0..2; default:N0)", "(0,1)"), "(0,(1,1))"),
    (r"N0 /\ mixed(N0; 0..3; 0:N0, 2:N0)", ("mixed(N0; 0..3; 0:N0, 2:N0)", "(0,1)"), "(0,(2,1))"),
])
def test_sup_residue_ramp_rows(struct, step, lub):
    d = parse_struct(struct)
    got = sup_sequence(d, SeqGen(tail=ResidueRamp(0, pv(*step))))
    assert got == pv(struct, lub)
    assert check_value(d, got) is got


@pytest.mark.parametrize("struct, step, message", [
    # (0,(x,...)) is a bound for every x > 0 of Rc, so no bound is least
    (r"N0 /\ (Rc \/ N0)", (r"Rc \/ N0", "(0,1)"), "residues at the top level have no least upper bound"),
    (r"N0 /\ (Rc /\ N0)", (r"Rc /\ N0", "(0,1)"), "residues at the top level have no least upper bound"),
])
def test_sup_residue_ramp_refusals(struct, step, message):
    with pytest.raises(NotRepresentableError, match=message):
        sup_sequence(parse_struct(struct), SeqGen(tail=ResidueRamp(0, pv(*step))))


def test_mixed_residues_repeat_and_step_up():
    d = parse_struct(r"N0 /\ mixed(N0; 0..2; default:Rc)")
    assert sum_sequence(d, SeqGen(tail=Repeat(pv(r"N0 /\ mixed(N0; 0..2; default:Rc)", "(0,(0,1))")))) == \
        pv(r"N0 /\ mixed(N0; 0..2; default:Rc)", "(0,(0,inf))")
    # above the top of the range the outer level steps up, to the least positive element of the
    # mixed residues: the least positive residue of their least level
    text = r"N0 /\ mixed(N0; 0..2; default:N0)"
    d = parse_struct(text)
    assert sup_sequence(d, SeqGen(tail=ResidueRamp(0, pv("mixed(N0; 0..2; default:N0)", "(2,1)")))) == \
        pv(text, "(1,(0,1))")
    assert kernel_of(d).succ(ZERO) == least_positive(d) == pv(text, "(0,(0,1))")


# Integer-leveled insertions whose residues have composite, bar, full and mixed levels, greatest
# elements (inf, top) to step up from, and dense orders where no least bound exists.
ORDER_STRUCTURES = (
    r"N0 /\ N0", r"Z /\ (Rc \/ N0)", r"N0 b/\ (Rc \/ Nbar0)", r"Z b/\ Nbar0",
    r"N0 /\ (N0 \/ N0)", r"N0 /\ (Nbar0 \/ Nbar0)", r"N0 /\ (Rc \/ N0)", r"N0 /\ (Rc b/\ N0)",
    r"N0 /\ ((N0 \/ N0) /\ N0)", r"N0 /\ ((Nbar0 \/ Nbar0) /\ N0)", r"N0 /\ ((N0 \/ Nbar0) /\ Nbar0)",
    r"Z b/\ ((N0 b\/ Nbar0) b/\ N0)",
    r"N0 /\ mixed(N0; 0..2; default:N0)", r"N0 /\ mixed(N0; 0..3; 0:N0, 2:N0)",
    r"Z /\ mixed(Z; ..3; 1:Nbar0, default:N0)", r"N0 /\ (mixed(N0; 0..3; 0:Nbar0, 2:N0) /\ Nbar0)",
)


@pytest.mark.parametrize("struct", ORDER_STRUCTURES)
def test_succ_is_the_least_element_above(struct):
    k = kernel_of(parse_struct(struct))
    rng = random.Random(11)
    ys = [k.gen(rng, ZERO_P) for _ in range(300)]
    stepped = 0
    for x in ys[:150]:
        s = k.succ(x)
        if s is NOTHING_ABOVE:
            assert all(k.cmp(y, x) <= 0 for y in ys), x
        elif s is not DENSE:
            assert k.cmp(x, k.check(s)) < 0, (x, s)
            assert all(k.cmp(y, x) <= 0 or k.cmp(y, s) >= 0 for y in ys), (x, s)
            stepped += 1
    assert stepped


@pytest.mark.parametrize("struct", ORDER_STRUCTURES)
def test_sup_of_a_residue_ramp_is_its_least_upper_bound(struct):
    d = parse_struct(struct)
    k = kernel_of(d)
    rng = random.Random(12)
    ys = [k.gen(rng, ZERO_P) for _ in range(300)]
    bounds = 0
    for _ in range(40):
        step = k.nonzero(rng)
        if step is TOP:
            continue
        try:
            lub = k.check(sup_sequence(d, SeqGen(tail=ResidueRamp(step.level.x, step.residue))))
        except NotRepresentableError:
            continue
        multiple = step
        for _ in range(64):
            assert k.cmp(multiple, lub) <= 0, (step, lub)
            multiple = k.add(multiple, step)
        for _ in range(4):
            multiple = k.add(multiple, multiple)  # 1040 * step, above every drawn y below the bound
        assert all(k.cmp(y, lub) >= 0 or k.cmp(y, multiple) <= 0 for y in ys), (step, lub)
        bounds += 1
    assert bounds


@pytest.mark.parametrize("call, message", [
    (lambda: LevelRamp(0, 0, Scalar(XReal(1))), "level ramp step must be a positive integer"),
    (lambda: sup_finite(parse_struct("S"), []), "sup of an empty set is undefined"),
    pytest.param(lambda: sup_sequence(parse_struct("S"), SeqGen()), "sup of an empty set is undefined",
                 id="sup_sequence-empty"),
])
def test_series_refusals(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message
