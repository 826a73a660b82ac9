"""Arithmetic on described structures.

Comparison, addition, multiplication and inversion run the descriptor's
kernel (see ``kernel``), compiled lazily, once per descriptor object:
levels dominate, equal levels recurse into the residue, and the adjoined
zero / top behave as least / greatest absorbing elements.
Multiplication adds levels using the level structure's own addition,
which for composite level structures is itself level-dominant; this is
exactly what makes the insertion combinator non-associative.

Public functions validate the shapes of their arguments and ask the
kernel what kind of structure they work in; hot paths call its closures.
"""

from __future__ import annotations

from .descriptors import regroup_desc, ungroup_desc
from .errors import CapabilityError, DomainError, ShapeError
from .kernel import EQ, GT, LT, TOP, ZERO, Pair, Scalar, Value, kernel_of
from .values import check_value, one, zero
from .xreal import XReal


# ---------------------------------------------------------------------------
# comparison, addition, multiplication
# ---------------------------------------------------------------------------

def cmp(d, x: Value, y: Value) -> int:
    """Total-order comparison; returns -1, 0 or 1."""
    k = kernel_of(d)
    k.check(x)
    k.check(y)
    return k.cmp(x, y)


def add(d, x: Value, y: Value) -> Value:
    """Level-dominant addition; zero is the identity, top absorbs."""
    k = kernel_of(d)
    k.check(x)
    k.check(y)
    return k.add(x, y)


def require_semiring(d):
    """d's kernel; CapabilityError unless d is a semiring."""
    k = kernel_of(d)
    if not k.semiring:
        raise CapabilityError(f"{d!r} is not a semiring; multiplication undefined")
    return k


def mul(d, x: Value, y: Value) -> Value:
    """Levels add (by the level structure's addition), residues multiply."""
    k = require_semiring(d)
    k.check(x)
    k.check(y)
    return k.mul(x, y)


def inv(d, x: Value) -> Value:
    """Multiplicative inverse in an ordered semifield."""
    if not kernel_of(d).semifield:
        raise CapabilityError(f"{d!r} is not a semifield; no inverses")
    return try_inv(d, x)


def try_inv(d, x: Value) -> Value:
    """Inverse of an invertible element of any semiring (levels must negate)."""
    k = kernel_of(d)
    if not k.semiring:
        raise CapabilityError(f"{d!r} is not a semiring")
    k.check(x)
    if k.is_zero(x):
        raise DomainError("zero has no multiplicative inverse")
    return k.inv(x)


def divide(d, x: Value, y: Value) -> Value:
    """x / y in a semifield; division by zero is a domain error."""
    return mul(d, x, inv(d, y))


# ---------------------------------------------------------------------------
# level and residue projections
# ---------------------------------------------------------------------------

def level(d, x: Value) -> Value:
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


def residue(d, x: Value) -> Value:
    """The residue part; by convention the residue of zero is zero."""
    k = kernel_of(d)
    k.check(x)
    if x is TOP:
        raise DomainError("residue of top is undefined")
    if isinstance(x, Pair):  # the zero of a full product too: its residue is the residue structure's zero
        return x.residue
    if k.is_zero(x):
        if k.parts is not None:
            return k.parts[1].zero
        raise DomainError(f"residue of zero is not defined for {d!r}")
    raise DomainError(f"{d!r} elements have no residue part")


def require_shiftable(d):
    """The kernel of d's levels; raise unless d's elements have an integer top level to shift."""
    k = kernel_of(d)
    if k.parts is None:
        raise CapabilityError(f"{d!r} has no integer level to shift")
    if not k.int_levels:
        raise ShapeError("top level is not an integer")
    return k.parts[0]


def shift(d, x: Value, k: int) -> Value:
    """Multiply by (k, 1): shift the top-level integer level by k."""
    if x is ZERO or x is TOP:
        return x
    kernel_of(d).check(x)
    # the residue was checked with x; only the new level can fall outside (N0 below 0)
    return Pair(require_shiftable(d).check(Scalar(x.level.x + k)), x.residue)


# ---------------------------------------------------------------------------
# signed values (double structures)
# ---------------------------------------------------------------------------

def _require_double(d, op: str):
    k = kernel_of(d)
    if k.neg is None:
        raise CapabilityError(f"{op} needs a double() descriptor")
    return k


def double_add(d, x: Value, y: Value) -> Value:
    """Sign-aware addition in double(L) for L with integer levels."""
    k = _require_double(d, "double_add")
    k.check(x)
    k.check(y)
    return k.add(x, y)


def neg(d, x: Value) -> Value:
    """The additive inverse in double(L): the sign flips."""
    return _require_double(d, "neg").neg(check_value(d, x))


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

class OVector:
    """Fixed-length vector of values over one insertion descriptor."""

    __slots__ = ("desc", "entries")

    def __init__(self, desc, entries):
        if kernel_of(desc).parts is None:
            raise CapabilityError("vectors are defined over insertion structures")
        entries = tuple(entries)
        if not entries:
            raise ShapeError("vectors have length >= 1")
        for e in entries:
            check_value(desc, e)
        self.desc = desc
        self.entries = entries

    @classmethod
    def _built(cls, desc, entries: tuple) -> "OVector":
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

def assoc_iso(d, x: Value) -> Value:
    """(a, (b, c)) -> ((a, b), c); an order and addition isomorphism."""
    regroup_desc(d)
    check_value(d, x)
    a, bc = x.level, x.residue
    return Pair(Pair(a, bc.level), bc.residue)


def assoc_iso_inv(d, x: Value) -> Value:
    """Inverse of assoc_iso: input shaped for (A \\/ B) \\/ C."""
    ungroup_desc(d)
    check_value(d, x)
    ab, c = x.level, x.residue
    return Pair(ab.level, Pair(ab.residue, c))


__all__ = [
    "LT", "EQ", "GT", "cmp", "add", "mul", "inv", "try_inv",
    "divide", "level", "residue", "shift",
    "double_add", "neg", "OVector", "scalar_mul_vec", "is_lattice_point",
    "regroup_desc", "assoc_iso", "assoc_iso_inv", "one", "zero",
]
