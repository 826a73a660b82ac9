"""Arithmetic on described structures.

Comparison, addition, multiplication and inversion are all driven by the
descriptor: levels dominate, equal levels recurse into the residue, and
the adjoined zero / top behave as least / greatest absorbing elements.
Multiplication adds levels using the level structure's own addition,
which for composite level structures is itself level-dominant; this is
exactly what makes the insertion combinator non-associative.

``cmp``, ``add``, ``mul`` and ``inv`` run the descriptor's kernel (see
``kernel``), compiled lazily, once per descriptor object.  Public
functions validate the shapes of their arguments; the ``_`` variants
assume well-shaped inputs and are used on internal hot paths.
"""

from __future__ import annotations

from .descriptors import BarInsert, BarSInsert, DoubleOf, Insert, SInsert, StructDesc
from .errors import CapabilityError, DomainError, ShapeError
from .kernel import EQ, GT, LT, TOP, ZERO, Pair, Scalar, Signed, Value, kernel_of
from .values import check_value, is_zero, one, zero
from .xreal import XReal


# ---------------------------------------------------------------------------
# comparison, addition, multiplication
# ---------------------------------------------------------------------------

def _cmp(d: StructDesc, x: Value, y: Value) -> int:
    return kernel_of(d).cmp(x, y)


def cmp(d: StructDesc, x: Value, y: Value) -> int:
    """Total-order comparison; returns -1, 0 or 1."""
    k = kernel_of(d)
    k.check(x)
    k.check(y)
    return k.cmp(x, y)


def _add(d: StructDesc, x: Value, y: Value) -> Value:
    return kernel_of(d).add(x, y)


def add(d: StructDesc, x: Value, y: Value) -> Value:
    """Level-dominant addition; zero is the identity, top absorbs."""
    k = kernel_of(d)
    k.check(x)
    k.check(y)
    return k.add(x, y)


def _mul(d: StructDesc, x: Value, y: Value) -> Value:
    return kernel_of(d).mul(x, y)


def require_semiring(d: StructDesc):
    """d's kernel; CapabilityError unless d is a semiring."""
    k = kernel_of(d)
    if not k.semiring:
        raise CapabilityError(f"{d!r} is not a semiring; multiplication undefined")
    return k


def mul(d: StructDesc, x: Value, y: Value) -> Value:
    """Levels add (by the level structure's addition), residues multiply."""
    k = require_semiring(d)
    k.check(x)
    k.check(y)
    return k.mul(x, y)


def inv(d: StructDesc, x: Value) -> Value:
    """Multiplicative inverse in an ordered semifield."""
    k = kernel_of(d)
    if not k.semifield:
        raise CapabilityError(f"{d!r} is not a semifield; no inverses")
    k.check(x)
    if k.is_zero(x):
        raise DomainError("zero has no multiplicative inverse")
    return k.inv(x)


def try_inv(d: StructDesc, x: Value) -> Value:
    """Inverse of an invertible element of any semiring (levels must negate)."""
    k = kernel_of(d)
    if not k.semiring:
        raise CapabilityError(f"{d!r} is not a semiring")
    k.check(x)
    if k.is_zero(x):
        raise DomainError("zero has no multiplicative inverse")
    return k.inv(x)


def divide(d: StructDesc, x: Value, y: Value) -> Value:
    """x / y in a semifield; division by zero is a domain error."""
    return mul(d, x, inv(d, y))


# ---------------------------------------------------------------------------
# level and residue projections
# ---------------------------------------------------------------------------

def level(d: StructDesc, x: Value) -> Value:
    """The level part of a nonzero element (undefined for 0 and top)."""
    k = kernel_of(d)
    k.check(x)
    if x is TOP:
        raise DomainError("level of top is undefined")
    if k.is_zero(x):
        raise DomainError("level of zero is undefined")
    if isinstance(x, Pair):
        return x.level
    raise DomainError(f"{d!r} elements have no level part")


def residue(d: StructDesc, x: Value) -> Value:
    """The residue part; by convention the residue of zero is zero."""
    k = kernel_of(d)
    k.check(x)
    if x is TOP:
        raise DomainError("residue of top is undefined")
    if k.is_zero(x):
        if isinstance(d, (Insert, BarInsert, SInsert, BarSInsert)):
            return zero(d.b)
        raise DomainError(f"residue of zero is not defined for {d!r}")
    if isinstance(x, Pair):
        return x.residue
    raise DomainError(f"{d!r} elements have no residue part")


def require_shiftable(d: StructDesc):
    """Raise unless d's elements have an integer top level to shift."""
    if not isinstance(d, (Insert, BarInsert)):
        raise CapabilityError(f"{d!r} has no integer level to shift")
    if not kernel_of(d).int_levels:
        raise ShapeError("top level is not an integer")


def shift(d: StructDesc, x: Value, k: int) -> Value:
    """Multiply by (k, 1): shift the top-level integer level by k."""
    if x is ZERO or x is TOP:
        return x
    kernel_of(d).check(x)
    require_shiftable(d)
    # the residue was checked with x; only the new level can fall outside (N0 below 0)
    return Pair(kernel_of(d.a).check(Scalar(x.level.x + k)), x.residue)


# ---------------------------------------------------------------------------
# signed values (double structures)
# ---------------------------------------------------------------------------

def double_add(d: DoubleOf, x: Value, y: Value) -> Value:
    """Sign-aware addition in double(L) for L with integer levels."""
    if not isinstance(d, DoubleOf):
        raise CapabilityError("double_add needs a double() descriptor")
    k = kernel_of(d)
    k.check(x)
    k.check(y)
    return k.add(x, y)


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

    @classmethod
    def _built(cls, desc: StructDesc, entries: tuple) -> "OVector":
        """A vector of entries already well-shaped for desc: nothing is re-checked."""
        w = cls.__new__(cls)
        w.desc, w.entries = desc, entries
        return w

    def __eq__(self, other):
        return isinstance(other, OVector) and self.desc == other.desc and self.entries == other.entries

    def __repr__(self):
        return f"OVector({list(self.entries)})"


def scalar_mul_vec(lam: Value, w: OVector) -> OVector:
    d, k = w.desc, kernel_of(w.desc)
    if not k.semiring:
        raise CapabilityError(f"{d!r} is not a semiring")
    k.check(lam)
    # products of well-shaped operands are well-shaped: only lam comes from outside
    return OVector._built(d, tuple(k.mul(lam, e) for e in w.entries))


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
    "LT", "EQ", "GT", "cmp", "add", "mul", "inv", "try_inv",
    "divide", "level", "residue", "shift",
    "double_add", "neg", "OVector", "scalar_mul_vec", "is_lattice_point",
    "regroup_desc", "assoc_iso", "assoc_iso_inv", "one", "zero",
]
