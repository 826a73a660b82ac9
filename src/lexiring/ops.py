"""Arithmetic on described structures.

Comparison, addition, multiplication and inversion are all driven by the
descriptor: levels dominate, equal levels recurse into the residue, and
the adjoined zero / top behave as least / greatest absorbing elements.
Multiplication adds levels using the level structure's own addition,
which for composite level structures is itself level-dominant; this is
exactly what makes the insertion combinator non-associative.

Public functions validate the shapes of their arguments; the ``_``
variants assume well-shaped inputs and are used on internal hot paths.
"""

from __future__ import annotations

from .descriptors import (
    Base,
    BarInsert,
    BarSInsert,
    DoubleOf,
    Insert,
    MixedInsert,
    SInsert,
    StructDesc,
    is_semifield,
    is_semiring,
)
from .errors import CapabilityError, DomainError, ShapeError
from .values import (
    TOP,
    ZERO,
    Pair,
    Scalar,
    Signed,
    Value,
    check_value,
    is_zero,
    one,
    zero,
)
from .xreal import XReal


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

LT, EQ, GT = -1, 0, 1


def _cmp(d: StructDesc, x: Value, y: Value) -> int:
    if x is TOP:
        return EQ if y is TOP else GT
    if y is TOP:
        return LT
    if isinstance(d, Base):
        a, b = x.x, y.x
        if isinstance(a, XReal):
            return a._cmp(b)
        return (a > b) - (a < b)
    if isinstance(d, DoubleOf):
        sx = 0 if x is ZERO else x.sign
        sy = 0 if y is ZERO else y.sign
        if sx != sy:
            return GT if sx > sy else LT
        if sx == 0:
            return EQ
        c = _cmp(d.inner, x.mag, y.mag)
        return c if sx > 0 else -c
    if x is ZERO:
        return EQ if is_zero(d, y) else LT
    if y is ZERO:
        return EQ if is_zero(d, x) else GT
    if isinstance(d, MixedInsert):
        lx, ly = x.level.x, y.level.x
        if lx != ly:
            return GT if lx > ly else LT
        return _cmp(d.residue_desc(lx), x.residue, y.residue)
    c = _cmp(d.a, x.level, y.level)
    if c != EQ:
        return c
    return _cmp(d.b, x.residue, y.residue)


def cmp(d: StructDesc, x: Value, y: Value) -> int:
    """Total-order comparison; returns -1, 0 or 1."""
    check_value(d, x)
    check_value(d, y)
    return _cmp(d, x, y)


# ---------------------------------------------------------------------------
# addition
# ---------------------------------------------------------------------------

def _add(d: StructDesc, x: Value, y: Value) -> Value:
    if x is TOP or y is TOP:
        return TOP
    if isinstance(d, Base):
        return Scalar(x.x + y.x)
    if isinstance(d, DoubleOf):
        return _double_add(d, x, y)
    if x is ZERO:
        return y
    if y is ZERO:
        return x
    if isinstance(d, MixedInsert):
        lx, ly = x.level.x, y.level.x
        if lx > ly:
            return x
        if ly > lx:
            return y
        return Pair(x.level, _add(d.residue_desc(lx), x.residue, y.residue))
    c = _cmp(d.a, x.level, y.level)
    if c > 0:
        return x
    if c < 0:
        return y
    return Pair(x.level, _add(d.b, x.residue, y.residue))


def add(d: StructDesc, x: Value, y: Value) -> Value:
    """Level-dominant addition; zero is the identity, top absorbs."""
    check_value(d, x)
    check_value(d, y)
    return _add(d, x, y)


def add_all(d: StructDesc, vals) -> Value:
    acc = zero(d)
    for v in vals:
        acc = _add(d, acc, v)
    return acc


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

def _mul(d: StructDesc, x: Value, y: Value) -> Value:
    if is_zero(d, x) or is_zero(d, y):
        return zero(d)
    if x is TOP or y is TOP:
        return TOP
    if isinstance(d, Base):
        return Scalar(x.x * y.x)
    return Pair(_add(d.a, x.level, y.level), _mul(d.b, x.residue, y.residue))


def mul(d: StructDesc, x: Value, y: Value) -> Value:
    """Levels add (by the level structure's addition), residues multiply."""
    if not is_semiring(d):
        raise CapabilityError(f"{d!r} is not a semiring; multiplication undefined")
    check_value(d, x)
    check_value(d, y)
    return _mul(d, x, y)


def _neg_level(d: StructDesc, v: Value) -> Value:
    if isinstance(d, Base) and d.name == "Z":
        return Scalar(-v.x)
    raise CapabilityError(f"levels of {d!r} cannot be negated")


def _inv(d: StructDesc, x: Value) -> Value:
    if isinstance(d, Base):
        return Scalar(XReal(1) / x.x)
    return Pair(_neg_level(d.a, x.level), _inv(d.b, x.residue))


def inv(d: StructDesc, x: Value) -> Value:
    """Multiplicative inverse in an ordered semifield."""
    if not is_semifield(d):
        raise CapabilityError(f"{d!r} is not a semifield; no inverses")
    check_value(d, x)
    if is_zero(d, x):
        raise DomainError("zero has no multiplicative inverse")
    return _inv(d, x)


def try_inv(d: StructDesc, x: Value) -> Value:
    """Inverse of an invertible element of any semiring (levels must negate)."""
    if not is_semiring(d):
        raise CapabilityError(f"{d!r} is not a semiring")
    check_value(d, x)
    if is_zero(d, x):
        raise DomainError("zero has no multiplicative inverse")
    if is_semifield(d):
        return _inv(d, x)

    def neg_level(dd, lv):
        if isinstance(dd, Base) and dd.name == "Z":
            return Scalar(-lv.x)
        if isinstance(dd, Base) and dd.name == "N0" and lv.x == 0:
            return lv
        raise DomainError(f"level {lv!r} cannot be negated in {dd!r}")

    def go(dd, v):
        if v is TOP:
            raise DomainError("top has no multiplicative inverse")
        if isinstance(dd, Base):
            if isinstance(v.x, XReal):
                if v.x.is_inf:
                    raise DomainError("inf has no multiplicative inverse")
                return Scalar(XReal(1) / v.x)
            if v.x == 1:
                return Scalar(1)
            raise DomainError(f"{v!r} is not invertible in {dd!r}")
        return Pair(neg_level(dd.a, v.level), go(dd.b, v.residue))

    return go(d, x)


def divide(d: StructDesc, x: Value, y: Value) -> Value:
    """x / y in a semifield; division by zero is a domain error."""
    return mul(d, x, inv(d, y))


# ---------------------------------------------------------------------------
# level and residue projections
# ---------------------------------------------------------------------------

def level(d: StructDesc, x: Value) -> Value:
    """The level part of a nonzero element (undefined for 0 and top)."""
    check_value(d, x)
    if x is TOP:
        raise DomainError("level of top is undefined")
    if is_zero(d, x):
        raise DomainError("level of zero is undefined")
    if isinstance(x, Pair):
        return x.level
    raise DomainError(f"{d!r} elements have no level part")


def residue(d: StructDesc, x: Value) -> Value:
    """The residue part; by convention the residue of zero is zero."""
    check_value(d, x)
    if x is TOP:
        raise DomainError("residue of top is undefined")
    if is_zero(d, x):
        if isinstance(d, (Insert, BarInsert, SInsert, BarSInsert)):
            return zero(d.b)
        raise DomainError(f"residue of zero is not defined for {d!r}")
    if isinstance(x, Pair):
        return x.residue
    raise DomainError(f"{d!r} elements have no residue part")


def shift(d: StructDesc, x: Value, k: int) -> Value:
    """Multiply by (k, 1): shift the top-level integer level by k."""
    if x is ZERO or x is TOP:
        return x
    check_value(d, x)
    if not isinstance(d, (Insert, BarInsert)):
        raise CapabilityError(f"{d!r} has no integer level to shift")
    lv = x.level
    if not (isinstance(lv, Scalar) and isinstance(lv.x, int)):
        raise ShapeError("top level is not an integer")
    return check_value(d, Pair(Scalar(lv.x + k), x.residue))


# ---------------------------------------------------------------------------
# signed values (double structures)
# ---------------------------------------------------------------------------

def _split_int_level(x: Value):
    if not (isinstance(x, Pair) and isinstance(x.level, Scalar) and isinstance(x.level.x, int)
            and isinstance(x.residue, Scalar) and isinstance(x.residue.x, XReal)):
        raise CapabilityError("signed addition needs (integer level, rational residue) magnitudes")
    return x.level.x, x.residue.x


def _double_add(d: DoubleOf, x: Value, y: Value) -> Value:
    if x is ZERO:
        return y
    if y is ZERO:
        return x
    if x.sign == y.sign:
        return Signed(x.sign, _add(d.inner, x.mag, y.mag))
    pos, neg = (x, y) if x.sign > 0 else (y, x)
    i, s = _split_int_level(pos.mag)
    j, t = _split_int_level(neg.mag)
    if i > j:
        return pos
    if i < j:
        return neg
    c = s._cmp(t)
    if c == 0:
        return ZERO
    if c > 0:
        return Signed(1, Pair(Scalar(i), Scalar(s.minus(t))))
    return Signed(-1, Pair(Scalar(i), Scalar(t.minus(s))))


def double_add(d: DoubleOf, x: Value, y: Value) -> Value:
    """Sign-aware addition in double(L) for L with integer levels."""
    if not isinstance(d, DoubleOf):
        raise CapabilityError("double_add needs a double() descriptor")
    check_value(d, x)
    check_value(d, y)
    return _double_add(d, x, y)


def neg(d: DoubleOf, x: Value) -> Value:
    check_value(d, x)
    if x is ZERO:
        return ZERO
    return Signed(-x.sign, x.mag)


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

class OVector:
    """Fixed-length vector of values over one insertion descriptor."""

    __slots__ = ("desc", "entries")

    def __init__(self, desc: StructDesc, entries):
        if not isinstance(desc, (Insert, BarInsert)):
            raise CapabilityError("vectors are defined over insertion structures")
        entries = tuple(entries)
        if not entries:
            raise ShapeError("vectors have length >= 1")
        for e in entries:
            check_value(desc, e)
        self.desc = desc
        self.entries = entries

    def __eq__(self, other):
        return isinstance(other, OVector) and self.desc == other.desc and self.entries == other.entries

    def __repr__(self):
        return f"OVector({list(self.entries)})"


def scalar_mul_vec(lam: Value, w: OVector) -> OVector:
    d = w.desc
    if not is_semiring(d):
        raise CapabilityError(f"{d!r} is not a semiring")
    check_value(d, lam)
    return OVector(d, (_mul(d, lam, e) for e in w.entries))


def is_lattice_point(w: OVector) -> bool:
    """All entries of the form (level, inf)."""
    for e in w.entries:
        if not (isinstance(e, Pair) and isinstance(e.residue, Scalar)
                and isinstance(e.residue.x, XReal) and e.residue.x.is_inf):
            return False
    return True


# ---------------------------------------------------------------------------
# associativity isomorphism for s-insertions
# ---------------------------------------------------------------------------

def regroup_desc(d: StructDesc) -> StructDesc:
    """A \\/ (B \\/ C)  ->  (A \\/ B) \\/ C"""
    if not (isinstance(d, SInsert) and isinstance(d.b, SInsert)):
        raise ShapeError("expected a right-nested s-insertion A \\/ (B \\/ C)")
    return SInsert(SInsert(d.a, d.b.a), d.b.b)


def assoc_iso(d: StructDesc, x: Value) -> Value:
    """(a, (b, c)) -> ((a, b), c); an order and addition isomorphism."""
    regroup_desc(d)
    check_value(d, x)
    a, bc = x.level, x.residue
    return Pair(Pair(a, bc.level), bc.residue)


def assoc_iso_inv(d: StructDesc, x: Value) -> Value:
    """Inverse of assoc_iso: input shaped for (A \\/ B) \\/ C."""
    if not (isinstance(d, SInsert) and isinstance(d.a, SInsert)):
        raise ShapeError("expected a left-nested s-insertion (A \\/ B) \\/ C")
    check_value(d, x)
    ab, c = x.level, x.residue
    return Pair(ab.level, Pair(ab.residue, c))


__all__ = [
    "LT", "EQ", "GT", "cmp", "add", "add_all", "mul", "inv", "try_inv",
    "divide", "level", "residue", "shift",
    "double_add", "neg", "OVector", "scalar_mul_vec", "is_lattice_point",
    "regroup_desc", "assoc_iso", "assoc_iso_inv", "one", "zero",
]
