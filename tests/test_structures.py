"""Descriptor grammar, literals, and the arithmetic case tables."""

import hashlib
import random

import pytest

from lexiring import descriptors as D
from lexiring import ops
from lexiring.descriptors import parse_struct
from lexiring.errors import CapabilityError, DomainError, LexiringError, NotRepresentableError, ParseError, ShapeError
from lexiring.integrate import SimpleFunction
from lexiring.kernel import DENSE, NOTHING_ABOVE, ZERO_P, kernel_of
from lexiring.laws import nonzero_value
from lexiring.seq import least_positive
from lexiring.values import TOP, ZERO, Pair, Scalar, Signed, format_value, is_zero, one, parse_value, zero
from lexiring.xreal import XReal

from support import pv


# ---------------------------------------------------------------------------
# structure grammar
# ---------------------------------------------------------------------------

def test_parse_aliases_expand_structurally():
    assert parse_struct(r"Z /\ Rc") == parse_struct("O") == D.Insert(D.Z, D.RC)
    assert parse_struct("S") == D.Insert(D.N0, D.RC)
    assert parse_struct("P") == D.Insert(D.Z, D.RO)
    assert parse_struct("Obar") == D.BarInsert(D.Z, D.RC)
    assert parse_struct("Sn(2)") == D.BarInsert(D.N0, D.BarInsert(D.N0, D.RC))
    assert parse_struct("On(2)") == D.BarInsert(D.Z, D.BarInsert(D.Z, D.RC))
    assert parse_struct("Pn(2)") == D.Insert(D.Z, D.Insert(D.Z, D.RO))


def test_parse_sinsert_inside_insert():
    got = parse_struct(r"(N0 \/ N0) /\ Rc")
    assert got == D.Insert(D.SInsert(D.N0, D.N0), D.RC)


def test_bar_operator_forms():
    assert parse_struct(r"Z b/\ Rc") == parse_struct("Obar")
    d = parse_struct(r"N0 b\/ N0")
    assert isinstance(d, D.BarSInsert)
    x = parse_value(d, "(1,2)")
    assert ops.add(d, x, TOP) is TOP
    assert ops.cmp(d, x, TOP) == ops.LT
    assert parse_value(d, "top") is TOP
    assert format_value(d, TOP) == "top"


def test_chains_require_parentheses():
    with pytest.raises(ParseError):
        parse_struct(r"N0 /\ N0 /\ N0")
    with pytest.raises(ParseError):
        parse_struct(r"N0 \/ N0 \/ N0")


def test_capability_validation():
    with pytest.raises(CapabilityError):
        parse_struct(r"Z \/ N0")  # Z is not an ordered abelian semigroup
    with pytest.raises(CapabilityError):
        parse_struct(r"N0 /\ Z")  # residues must come from a semigroup
    with pytest.raises(CapabilityError):
        parse_struct("double(Z)")
    with pytest.raises(CapabilityError, match="residue structure at level 1 must be a semigroup"):
        parse_struct("mixed(N0; 0..2; 1:double(S), default:Rc)")
    with pytest.raises(CapabilityError, match="default residue structure must be a semigroup"):
        parse_struct("mixed(N0; 0..2; default:Z)")


def test_capability_flags():
    caps = D.capabilities(parse_struct("P"))
    assert caps["isSemifield"] and caps["isSemiring"]
    assert not caps["hasLubProperty"] and not caps["isSummable"]
    caps_s = D.capabilities(parse_struct("S"))
    assert caps_s["hasLubProperty"] and not caps_s["isSummable"] and not caps_s["hasTop"]
    caps_obar = D.capabilities(parse_struct("Obar"))
    assert caps_obar["hasTop"] and caps_obar["isSummable"] and caps_obar["hasLubProperty"]
    assert not D.capabilities(parse_struct(r"N0 \/ N0"))["isSemiring"]


# The descriptor pool: the five bases, the four pairings over them, double(...) of every third
# of those (30), and two mixed insertions, the second one invalid.
PAIRINGS = (D.SInsert, D.Insert, D.BarSInsert, D.BarInsert)
_BASES = [D.Base(name) for name in D.BASE_NAMES]
_LEVEL1 = _BASES + [cls(a, b) for cls in PAIRINGS for a in _BASES for b in _BASES]
DESCRIPTOR_POOL = (_LEVEL1 + [D.DoubleOf(d) for d in _LEVEL1[::3][:30]]
                   + [D.MixedInsert(D.N0, 0, 2, [(0, D.RC), (2, D.NBAR0)]), D.MixedInsert(D.Z, None, 3, [(1, D.N0)])])
PAIRS_OF_POOL = [cls(a, b) for cls in PAIRINGS for a in DESCRIPTOR_POOL for b in DESCRIPTOR_POOL]

# SHA-256 of one line per descriptor of the pool and of PAIRS_OF_POOL (75,213 descriptors), as
# recorded with the ten per-property predicates that facts() replaced
FACTS_DIGEST = "5771c87d823e2167ca84c41225696d08d65c5c01afb7dcce2f4bd2be6d7e0cb8"


def test_facts_match_the_pinned_digest():
    h = hashlib.sha256()
    for d in DESCRIPTOR_POOL + PAIRS_OF_POOL:
        try:
            D.validate_desc(d)
            outcome = "ok"
        except CapabilityError as exc:
            outcome = f"CapabilityError: {exc}"
        f = D.facts(d)
        line = f"{d!r}|{sorted(D.capabilities(d).items())}|{outcome}|{f.greatest}|{f.least_positive}|{f.least}\n"
        h.update(line.encode())
    assert h.hexdigest() == FACTS_DIGEST


def _random_desc(rng, depth):
    """A descriptor nested at most depth combinators deep, valid or not: bases, the four pairings,
    double(...), and mixed(...) over any base (N0 or Z 8 times in 11), with bounds that are None,
    negative or empty for N0, tables with out-of-range, negative and faulty levels, and faulty
    defaults."""
    kind = rng.randrange(8) if depth else 0
    if kind < 2:
        return rng.choice(_BASES)
    if kind < 6:
        return PAIRINGS[kind - 2](_random_desc(rng, depth - 1), _random_desc(rng, depth - 1))
    if kind == 6:
        return D.DoubleOf(_random_desc(rng, depth - 1))
    levels = rng.sample(range(-2, 5), rng.randrange(4))
    default = _random_desc(rng, depth - 1) if rng.random() < 0.6 else None
    return D.MixedInsert(rng.choice(_BASES[:2] * 4 + _BASES[2:]), rng.choice((None, -2, 0, 1)), rng.choice((None, -1, 2, 3)),
                         [(lev, _random_desc(rng, depth - 1)) for lev in levels], default)


# SHA-256 of one line per descriptor (its text, validation outcome and ten facts) of 10,000 drawn by
# _random_desc, as recorded while validation still walked each descriptor, then re-recorded when a mixed(...)
# range that holds no level (lo > hi, or an N0 range that ends below 0) stopped claiming a least positive
# element: 132 lines changed, each only in least_positive, from True to False
VALIDATION_DIGEST = "86a8ecbce443fded0798342789f63eb010bf1ccae312817beca23b2058f1a4e3"


def test_validation_outcomes_match_the_pinned_digest():
    rng = random.Random(16)
    pool = [_random_desc(rng, 3) for _ in range(10000)]
    h, invalid, mixed_bases = hashlib.sha256(), 0, set()
    for d in pool:
        try:
            D.validate_desc(d)
            outcome = "ok"
        except CapabilityError as exc:
            outcome = f"CapabilityError: {exc}"
            invalid += 1
        if isinstance(d, D.MixedInsert):
            mixed_bases.add(d.base.name)
        h.update(f"{d!r}|{outcome}|{tuple(D.facts(d))}\n".encode())
    assert invalid > 1000 and mixed_bases == set(D.BASE_NAMES)
    assert h.hexdigest() == VALIDATION_DIGEST


def test_least_positive_exists_exactly_where_the_facts_say():
    rng = random.Random(8)
    built = 0
    for d in DESCRIPTOR_POOL + PAIRS_OF_POOL[::41]:
        try:
            D.validate_desc(d)
        except CapabilityError:
            continue
        if not D.facts(d).least_positive:
            with pytest.raises(NotRepresentableError):
                least_positive(d)
            continue
        k = kernel_of(d)
        lp = k.check(least_positive(d))
        assert k.cmp(lp, k.zero) > 0, d
        for _ in range(100):
            v = k.gen(rng, ZERO_P)
            assert k.cmp(v, k.zero) <= 0 or k.cmp(lp, v) <= 0, (d, v)
        built += 1
    assert built > 100


def test_one_exists_exactly_in_the_semirings():
    rng = random.Random(9)
    built = 0
    for d in DESCRIPTOR_POOL + PAIRS_OF_POOL[::41]:
        try:
            D.validate_desc(d)
        except CapabilityError:
            continue
        if not D.facts(d).semiring:
            with pytest.raises(ShapeError, match="has no multiplicative identity"):
                one(d)
            continue
        k = kernel_of(d)
        e = k.check(one(d))
        for _ in range(20):
            v = k.gen(rng, ZERO_P)
            assert k.mul(v, e) == v and k.mul(e, v) == v, (d, v)
        built += 1
    assert built > 50


def test_only_semirings_multiply_and_a_descriptor_is_its_class_and_parts():
    checked = semirings = 0
    for d in DESCRIPTOR_POOL + PAIRS_OF_POOL[::7]:
        try:
            D.validate_desc(d)
        except CapabilityError:
            continue
        k = kernel_of(d)
        assert [f is None for f in (k.mul, k.inv, k.one)] == [not d.facts.semiring] * 3, d
        again = parse_struct(repr(d))
        assert again == d and again is not d and hash(again) == hash(d) and {d: 1}[again] == 1, d
        checked += 1
        semirings += d.facts.semiring
    assert checked > 3000 and semirings > 1000
    for a, b in ((D.N0, D.RC), (D.Z, D.RO)):
        pairings = [cls(a, b) for cls in PAIRINGS]
        assert [x == y for x in pairings for y in pairings] == [x is y for x in pairings for y in pairings]


def test_kernel_facts_are_the_descriptor_facts():
    for d in DESCRIPTOR_POOL + PAIRS_OF_POOL[::41] + [parse_struct("Sn(64)"), parse_struct("Pn(3)")]:
        try:
            D.validate_desc(d)
        except CapabilityError:
            continue
        k = kernel_of(d)
        assert k.facts == D.facts(d), d
        assert (k.semiring, k.semifield) == (k.facts.semiring, k.facts.semifield)


# The isinstance tests that the kernel's kind members replaced, kept as the oracle.
def _old_int_levels(d):
    return isinstance(d, (D.Insert, D.BarInsert)) and isinstance(d.a, D.Base) and d.a.name in ("N0", "Z")


def _old_require_shiftable(d):
    if not isinstance(d, (D.Insert, D.BarInsert)):
        raise CapabilityError(f"{d!r} has no integer level to shift")
    if not _old_int_levels(d):
        raise ShapeError("top level is not an integer")


def _old_residue_of_zero(d):
    if isinstance(d, (D.Insert, D.BarInsert, D.SInsert, D.BarSInsert)):
        return zero(d.b)
    raise DomainError(f"residue of zero is not defined for {d!r}")


def _old_ovector(d, entries):
    if not isinstance(d, (D.Insert, D.BarInsert)):
        raise CapabilityError("vectors are defined over insertion structures")
    return tuple(entries)


def _old_signed(d, values):
    if not isinstance(d, D.DoubleOf):
        raise ShapeError("signed functions need a double() descriptor")
    return values


def _old_double_add(d, x, y):
    if not isinstance(d, D.DoubleOf):
        raise CapabilityError("double_add needs a double() descriptor")
    return kernel_of(d).add(x, y)


def _outcome(f, *args):
    """f's result, or the type and message of the library error it raised."""
    try:
        return f(*args)
    except LexiringError as exc:
        return type(exc), str(exc)


def test_kernel_kind_members_match_the_isinstance_predicates():
    rng = random.Random(4)
    checked = 0
    for d in DESCRIPTOR_POOL + PAIRS_OF_POOL[::7]:
        try:
            D.validate_desc(d)
        except CapabilityError:
            continue
        k = kernel_of(d)
        insertion = isinstance(d, (D.Insert, D.BarInsert))
        assert k.base == (d.name if isinstance(d, D.Base) else None), d
        assert k.parts == ((kernel_of(d.a), kernel_of(d.b)) if insertion else None), d
        assert k.int_levels == _old_int_levels(d), d
        assert k.sliceable == (_old_int_levels(d) and isinstance(d.b, D.Base) and d.b.name in ("Rc", "Ro")), d
        assert k.bar == isinstance(d, (D.BarInsert, D.BarSInsert)), d
        assert (k.neg is not None) == isinstance(d, D.DoubleOf), d

        want = _outcome(_old_require_shiftable, d)
        assert _outcome(ops.require_shiftable, d) == (k.parts[0] if want is None else want), d
        assert _outcome(ops.residue, d, zero(d)) == _outcome(_old_residue_of_zero, d), d
        x = nonzero_value(rng, d)
        got = _outcome(ops.OVector, d, [x])
        assert (got.entries if isinstance(got, ops.OVector) else got) == _outcome(_old_ovector, d, [x]), d
        got = _outcome(SimpleFunction.signed, d, {"a": x})
        assert (got.values if isinstance(got, SimpleFunction) else got) == _outcome(_old_signed, d, {"a": x}), d
        assert _outcome(ops.double_add, d, x, x) == _outcome(_old_double_add, d, x, x), d
        if k.neg is None:
            assert _outcome(ops.neg, d, x) == (CapabilityError, "neg needs a double() descriptor"), d
        else:
            assert ops.neg(d, x) == Signed(-x.sign, x.mag) and ops.neg(d, ZERO) is ZERO, d
        checked += 1
    assert checked > 1000


@pytest.mark.parametrize("text, least", [
    ("mixed(N0; 0..2; default:N0)", "(0,1)"),
    ("mixed(N0; 0..2; default:Rc)", None),
    ("mixed(N0; -2..3; default:Nbar0)", "(0,1)"),  # the range starts at 0 in N0
    ("mixed(N0; 0..3; 1:Nbar0, 3:Rc)", "(1,1)"),  # without a default, the least listed level
    ("mixed(N0; 0..3; 1:Rc, 3:N0)", None),
    ("mixed(Z; -2..3; 0:N0, default:Rc)", None),
    ("mixed(Z; -1..; 0:Rc, default:N0)", "(-1,1)"),
    ("mixed(Z; ..3; default:N0)", None),  # no least level
    (r"mixed(Z; 1..2; 1:(Rc \/ N0), default:Rc)", "(1,(0,1))"),
])
def test_mixed_least_positive_lies_at_the_least_level_with_residues(text, least):
    d = parse_struct(text)
    k = kernel_of(d)
    assert D.facts(d).least_positive == (least is not None)
    assert k.least_positive == (None if least is None else parse_value(d, least))
    rng = random.Random(3)
    for _ in range(200):
        v = k.gen(rng, ZERO_P)
        assert least is None or k.cmp(v, k.zero) == 0 or k.cmp(k.least_positive, v) <= 0, v
    assert k.succ(ZERO) == (DENSE if least is None else k.least_positive)


@pytest.mark.parametrize("default", [D.N0, D.NBAR0])
def test_an_empty_mixed_range_has_no_least_positive_element(default):
    # the parser refuses an empty range, but a descriptor built directly validates: its only element is 0, so
    # neither its facts nor its kernel give it, or N0 /\ it, a least positive element
    for empty in (D.MixedInsert(D.Z, 1, -1, [], default), D.MixedInsert(D.N0, 3, 2, [], default)):
        assert kernel_of(empty).succ(ZERO) is NOTHING_ABOVE, empty
        for d in (empty, D.Insert(D.N0, empty)):
            D.validate_desc(d)
            assert not d.facts.least_positive and kernel_of(d).least_positive is None, d
            with pytest.raises(NotRepresentableError):
                least_positive(d)


def test_the_kernel_builds_exactly_the_elements_the_facts_say_exist():
    # the kernel reads d.facts for one, least_positive and a base's repeat_limit; this holds it to them over
    # the distinct valid descriptors _random_desc draws
    rng = random.Random(21)
    seen = set()
    for depth in (3, 4):
        for _ in range(12000):
            d = _random_desc(rng, depth)
            if d.fault is not None or d in seen:
                continue
            seen.add(d)
            f, k = d.facts, kernel_of(d)
            assert (k.least_positive is not None) == f.least_positive, d
            assert (k.one is not None) == f.semiring, d
            assert k.base is None or (k.repeat_limit is not None) == f.summable, d
    assert len(seen) > 1000


def test_mixed_parse():
    d = parse_struct("mixed(N0; 0..2; 0:Rc, 1:Rc, 2:Nbar0)")
    assert isinstance(d, D.MixedInsert)
    listed = dict(d.table)
    assert listed[2] == D.NBAR0 and kernel_of(d).residue_kernel(Scalar(2)) is kernel_of(listed[2])
    assert kernel_of(d).residue_kernel(Scalar(3)) is None
    d2 = parse_struct("mixed(Z; ..0; default:Rc)")
    k2 = kernel_of(d2)
    assert d2.default == D.RC and k2.residue_kernel(Scalar(-100)) is kernel_of(d2.default)
    assert k2.residue_kernel(Scalar(1)) is None
    with pytest.raises(CapabilityError, match="below every level of N0"):
        parse_struct("mixed(N0; -3..-1; default:Rc)")  # every listed level is negative
    d3 = parse_struct("mixed(N0; -3..0; default:Rc)")
    assert nonzero_value(random.Random(5), d3).level == Scalar(0)


def test_mixed_arithmetic():
    d = parse_struct("mixed(N0; 0..2; 0:Rc, 1:Rc, 2:Nbar0)")
    lo = parse_value(d, "(0,1/2)")
    hi = parse_value(d, "(2,3)")
    assert ops.add(d, lo, hi) == hi  # level dominance across different residues
    assert ops.add(d, lo, parse_value(d, "(0,1/3)")) == parse_value(d, "(0,5/6)")
    assert ops.add(d, hi, parse_value(d, "(2,inf)")) == parse_value(d, "(2,inf)")
    assert ops.cmp(d, ZERO, lo) == ops.LT
    assert ops.cmp(d, lo, hi) == ops.LT
    with pytest.raises(ShapeError):
        parse_value(d, "(2,1/2)")  # level 2 residues are whole numbers
    with pytest.raises(ShapeError):
        parse_value(d, "(3,1)")  # outside the declared level range
    with pytest.raises(CapabilityError):
        ops.mul(d, lo, hi)  # mixed insertions are semigroups only


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def test_cmp_level_dominates():
    d = parse_struct("O")
    assert ops.cmp(d, pv("O", "(0,5)"), pv("O", "(1,1/10)")) == ops.LT


def test_cmp_zero_least():
    d = parse_struct("S")
    assert ops.cmp(d, ZERO, pv("S", "(0,1/100)")) == ops.LT


def test_cmp_top_greatest():
    d = parse_struct("Obar")
    assert ops.cmp(d, pv("Obar", "(3,inf)"), TOP) == ops.LT


# ---------------------------------------------------------------------------
# addition
# ---------------------------------------------------------------------------

def test_add_dominance():
    d = parse_struct("S")
    assert ops.add(d, pv("S", "(2,1/3)"), pv("S", "(1,inf)")) == pv("S", "(2,1/3)")


def test_add_equal_levels():
    d = parse_struct("S")
    assert ops.add(d, pv("S", "(1,1/4)"), pv("S", "(1,1/2)")) == pv("S", "(1,3/4)")


def test_add_zero_identity():
    for struct, lit in (("S", "(2,1/3)"), ("P", "(-1,3/4)"), ("Obar", "top")):
        d = parse_struct(struct)
        x = pv(struct, lit)
        assert ops.add(d, x, zero(d)) == x
        assert ops.add(d, zero(d), x) == x


def test_add_top_absorbs():
    d = parse_struct("Obar")
    assert ops.add(d, TOP, pv("Obar", "(5,2)")) == TOP


# ---------------------------------------------------------------------------
# multiplication: the non-associativity witness
# ---------------------------------------------------------------------------

def test_mul_right_nested_witness():
    d = parse_struct(r"N0 /\ (N0 /\ N0)")
    x = parse_value(d, "(1,(1,1))")
    y = parse_value(d, "(2,(1,1))")
    assert ops.mul(d, x, y) == parse_value(d, "(3,(2,1))")


def test_mul_left_nested_witness():
    d = parse_struct(r"(N0 /\ N0) /\ N0")
    x = parse_value(d, "((1,1),1)")
    y = parse_value(d, "((2,1),1)")
    assert ops.mul(d, x, y) == parse_value(d, "((2,1),1)")


def test_witness_shapes_are_incompatible():
    right = parse_struct(r"N0 /\ (N0 /\ N0)")
    left = parse_struct(r"(N0 /\ N0) /\ N0")
    with pytest.raises((ShapeError, ParseError)):
        parse_value(left, "(1,(1,1))")
    with pytest.raises((ShapeError, ParseError)):
        parse_value(right, "((1,1),1)")
    # the structural values are rejected too, not just the literals
    from lexiring.values import check_value

    with pytest.raises(ShapeError):
        check_value(left, parse_value(right, "(1,(1,1))"))
    with pytest.raises(ShapeError):
        check_value(right, parse_value(left, "((1,1),1)"))


def test_mul_identity():
    d = parse_struct("P")
    x = pv("P", "(-1,3/4)")
    assert ops.mul(d, x, one(d)) == x
    assert one(d) == pv("P", "(0,1)")


def test_mul_needs_semiring():
    d = parse_struct(r"N0 \/ N0")
    with pytest.raises(CapabilityError):
        ops.mul(d, zero(d), zero(d))


def test_bar_zero_top_products():
    d = parse_struct("Obar")
    x = pv("Obar", "(2,3)")
    assert ops.mul(d, ZERO, TOP) == ZERO
    assert ops.mul(d, TOP, x) == TOP


# ---------------------------------------------------------------------------
# inverses
# ---------------------------------------------------------------------------

def test_inv_examples():
    d = parse_struct("P")
    assert ops.inv(d, pv("P", "(0,1/2)")) == pv("P", "(0,2)")
    assert ops.inv(d, pv("P", "(0,1)")) == pv("P", "(0,1)")


def test_inv_nested_semifield():
    d = parse_struct("Pn(2)")
    x = parse_value(d, "(-1,2,3)")
    ix = ops.inv(d, x)
    # verified by multiplying back to the identity before trusting the literal
    assert ops.mul(d, x, ix) == one(d)
    assert ix == parse_value(d, "(1,(-2,1/3))")
    assert ix == parse_value(d, "(1,-2,1/3)")


def test_inv_errors():
    d = parse_struct("P")
    with pytest.raises(DomainError):
        ops.inv(d, ZERO)
    with pytest.raises(CapabilityError):
        ops.inv(parse_struct("O"), pv("O", "(0,2)"))


def test_try_inv_units_outside_semifields():
    o = parse_struct("O")
    assert ops.try_inv(o, pv("O", "(3,2)")) == pv("O", "(-3,1/2)")
    s = parse_struct("S")
    assert ops.try_inv(s, pv("S", "(0,2)")) == pv("S", "(0,1/2)")
    with pytest.raises(DomainError):
        ops.try_inv(s, pv("S", "(1,2)"))  # no negative levels available
    with pytest.raises(DomainError):
        ops.try_inv(o, pv("O", "(0,inf)"))


# level before residue: (1,inf) in S fails on its level
@pytest.mark.parametrize("struct, text, message", [
    ("S", "(1,inf)", "level 1 cannot be negated in N0"),
    ("S", "(0,inf)", "inf has no multiplicative inverse"),
    (r"(N0 \/ N0) /\ Ro", "((0,0),2)", r"level (0,0) cannot be negated in (N0 \/ N0)"),
    (r"Z /\ (N0 b/\ Rc)", "(1,top)", "top has no multiplicative inverse"),
    (r"N0 /\ N0", "(0,2)", "2 is not invertible in N0"),
])
def test_try_inv_errors(struct, text, message):
    with pytest.raises(DomainError) as exc:
        ops.try_inv(parse_struct(struct), pv(struct, text))
    assert str(exc.value) == message


def test_divide_dartboard_value():
    d = parse_struct("P")
    got = ops.divide(d, pv("P", "(-1,3/4)"), pv("P", "(0,1/2)"))
    assert got == pv("P", "(-1,3/2)")


# ---------------------------------------------------------------------------
# level / residue projections
# ---------------------------------------------------------------------------

def test_level_residue():
    d = parse_struct("O")
    x = pv("O", "(3,1/2)")
    assert ops.level(d, x) == Scalar(3)
    assert ops.residue(d, x) == Scalar(XReal(1, 2))


def test_residue_of_zero_is_zero():
    d = parse_struct("O")
    assert is_zero(D.RC, ops.residue(d, ZERO))


@pytest.mark.parametrize("v", [ZERO, TOP], ids=["ZERO", "TOP"])
def test_is_zero_refuses_a_value_outside_the_structure(v):
    # Rc has no adjoined zero and no top: the public test checks its operand, as every public operation does
    with pytest.raises(ShapeError):
        is_zero(D.RC, v)


def test_level_undefined_cases():
    with pytest.raises(DomainError):
        ops.level(parse_struct("Obar"), TOP)
    with pytest.raises(DomainError):
        ops.level(parse_struct("O"), ZERO)


# ---------------------------------------------------------------------------
# double structures
# ---------------------------------------------------------------------------

def test_double_add_cases():
    d = parse_struct("double(O)")
    x = parse_value(d, "(2,5)")
    y = parse_value(d, "-(1,3)")
    assert ops.double_add(d, x, y) == parse_value(d, "(2,5)")
    a = parse_value(d, "(1,3/4)")
    assert ops.double_add(d, a, parse_value(d, "-(1,1/4)")) == parse_value(d, "(1,1/2)")
    assert ops.double_add(d, a, parse_value(d, "-(1,3/4)")) == ZERO


def test_neg_outside_double_is_a_capability_error():
    with pytest.raises(CapabilityError, match=r"neg needs a double\(\) descriptor"):
        ops.neg(parse_struct("O"), pv("O", "(1,2)"))


def test_double_neg_and_order():
    d = parse_struct("double(S)")
    x = parse_value(d, "(1,2)")
    nx = ops.neg(d, x)
    assert ops.double_add(d, x, nx) == ZERO
    assert ops.cmp(d, nx, ZERO) == ops.LT
    assert ops.cmp(d, nx, parse_value(d, "-(1,3)")) == ops.GT


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def test_scalar_mul_shifts_levels():
    d = parse_struct("O")
    w = ops.OVector(d, [pv("O", "(0,2)"), pv("O", "(3,inf)")])
    got = ops.scalar_mul_vec(pv("O", "(1,1)"), w)
    assert got == ops.OVector(d, [pv("O", "(1,2)"), pv("O", "(4,inf)")])


def test_scalar_mul_identity():
    d = parse_struct("O")
    w = ops.OVector(d, [pv("O", "(0,2)"), pv("O", "(-1,7)")])
    assert ops.scalar_mul_vec(one(d), w) == w
    assert repr(w) == "OVector([(0,2), (-1,7)])"


def test_scalar_mul_builds_checked_entries_and_checks_the_scalar():
    rng = random.Random(12)
    for text in ("O", "S", "Obar", "Pn(2)"):
        d = parse_struct(text)
        for _ in range(20):
            lam = nonzero_value(rng, d)
            w = ops.OVector(d, [nonzero_value(rng, d) for _ in range(rng.randrange(1, 6))])
            got = ops.scalar_mul_vec(lam, w)
            assert got == ops.OVector(d, [ops.mul(d, lam, e) for e in w.entries])
    d = parse_struct("O")
    with pytest.raises(ShapeError):
        ops.scalar_mul_vec(Pair(Scalar(1), Scalar(XReal(0))), ops.OVector(d, [pv("O", "(0,2)")]))


def test_lattice_points():
    d = parse_struct("O")
    assert ops.is_lattice_point(ops.OVector(d, [pv("O", "(2,inf)"), pv("O", "(0,inf)")]))
    assert not ops.is_lattice_point(ops.OVector(d, [pv("O", "(2,inf)"), pv("O", "(0,1)")]))
    assert not ops.is_lattice_point(ops.OVector(d, [ZERO, pv("O", "(0,inf)")]))


# ---------------------------------------------------------------------------
# associativity isomorphism for s-insertions
# ---------------------------------------------------------------------------

def test_assoc_iso_example():
    d = parse_struct(r"N0 \/ (N0 \/ N0)")
    x = parse_value(d, "(1,(2,3))")
    t = ops.regroup_desc(d)
    assert ops.assoc_iso(d, x) == parse_value(t, "((1,2),3)")
    assert ops.assoc_iso_inv(t, ops.assoc_iso(d, x)) == x


def test_assoc_iso_preserves_zero():
    d = parse_struct(r"N0 \/ (N0 \/ N0)")
    t = ops.regroup_desc(d)
    assert ops.assoc_iso(d, zero(d)) == zero(t)


def test_assoc_iso_homomorphism_random():
    import random

    from lexiring.laws import random_value

    rng = random.Random(11)
    d = parse_struct(r"N0 \/ (Rc \/ N0)")
    t = ops.regroup_desc(d)
    for _ in range(500):
        x = random_value(rng, d)
        y = random_value(rng, d)
        assert ops.assoc_iso(d, ops.add(d, x, y)) == ops.add(t, ops.assoc_iso(d, x), ops.assoc_iso(d, y))
        assert ops.cmp(d, x, y) == ops.cmp(t, ops.assoc_iso(d, x), ops.assoc_iso(d, y))


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

def test_literal_roundtrip():
    cases = [
        ("O", "(-1,3/2)"),
        ("O", "0"),
        ("Obar", "top"),
        ("S", "(2,inf)"),
        ("Pn(2)", "(1,(-2,1/3))"),
        (r"(N0 \/ N0) /\ Rc", "((1,2),5/3)"),
        (r"N0 \/ N0", "(0,3)"),
        (r"N0 \/ N0", "0"),
        ("double(O)", "-(1,3)"),
        ("double(O)", "(2,5)"),
        ("mixed(N0; 0..2; 0:Rc, 1:Rc, 2:Nbar0)", "(2,inf)"),
    ]
    for struct, text in cases:
        d = parse_struct(struct)
        v = parse_value(d, text)
        assert format_value(d, v) == text
        assert parse_value(d, format_value(d, v)) == v


def test_flat_literals_are_sugar():
    d = parse_struct("Pn(3)")
    assert parse_value(d, "(1,2,3,1/2)") == parse_value(d, "(1,(2,(3,1/2)))")


def test_sinsert_zero_forms():
    d = parse_struct(r"N0 \/ N0")
    assert parse_value(d, "(0,0)") == zero(d) == Pair(Scalar(0), Scalar(0))
    assert format_value(d, zero(d)) == "0"


def test_residue_zero_rejected():
    with pytest.raises(ShapeError):
        pv("O", "(1,0)")


def test_literal_shape_errors():
    with pytest.raises(ShapeError):
        pv("S", "(-1,2)")
    with pytest.raises(ShapeError):
        pv("P", "(0,inf)")
    with pytest.raises(ShapeError):
        pv("O", "top")
    with pytest.raises(ParseError):
        pv("O", "(1,2") and None
    with pytest.raises(ParseError):
        pv("O", "(1,2) junk")


class _UnknownDesc(D.StructDesc):
    """A descriptor of no kind the kernel compiles."""

    __slots__ = ()

    def __repr__(self):
        return "unknown()"


@pytest.mark.parametrize("call, error, message", [
    (lambda: D.Base("Q"), CapabilityError, "unknown base structure 'Q'"),
    (lambda: D.regroup_desc(parse_struct("P")), ShapeError, r"expected a right-nested s-insertion A \/ (B \/ C)"),
    (lambda: D.ungroup_desc(parse_struct("P")), ShapeError, r"expected a left-nested s-insertion (A \/ B) \/ C"),
    (lambda: kernel_of(_UnknownDesc()), ShapeError, "unknown descriptor unknown()"),
    (lambda: ops.level(D.N0, Scalar(1)), DomainError, "N0 elements have no level part"),
    (lambda: ops.residue(parse_struct("Obar"), TOP), DomainError, "residue of top is undefined"),
    (lambda: ops.residue(D.N0, Scalar(1)), DomainError, "N0 elements have no residue part"),
    (lambda: ops.OVector(parse_struct("P"), []), ShapeError, "vectors have length >= 1"),
    (lambda: ops.scalar_mul_vec(pv(r"N0 /\ (N0 \/ N0)", "(0,(0,1))"),
                                ops.OVector(parse_struct(r"N0 /\ (N0 \/ N0)"), [pv(r"N0 /\ (N0 \/ N0)", "(0,(0,1))")])),
     CapabilityError, r"(N0 /\ (N0 \/ N0)) is not a semiring"),
])
def test_structure_and_operation_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
