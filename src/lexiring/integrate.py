"""Integration of atomwise-constant functions against level-valued measures.

On a finite atom space every function is simple, so the three integrals
reduce to finite sums, each one ``Kernel.sum`` of the measure's
structure (the level-dominant sum: only the residues at the highest
level add):

  * real-valued f: one term (level, f(a) * residue) per atom a; a ``top``
    atom stays ``top``, and zero weights and zero atoms add nothing.
  * structure-valued g: atoms are partitioned by the level of g, the
    residues are integrated one nesting level down, and each part is
    level-shifted back by the partition level.
  * signed f: integrate the positive and negative parts separately and
    combine with the sign-aware case rule.

Every integral walks its event in atom order, as ``LMeasure.value``
does, so a function missing at several atoms names the first of them,
whatever the hash seed.  Infinite residues propagate through the
arithmetic; no special casing.  The measure's and the function's kernels
say whether they can be integrated (``sliceable``, ``int_levels``, ``neg``).
"""

from __future__ import annotations

from .errors import CapabilityError, DomainError, ShapeError
from .kernel import kernel_of
from .measure import LMeasure
from .ops import shift
from .values import TOP, ZERO, Pair, Scalar, Signed, Value, check_value, is_zero
from .xreal import XReal


class SimpleFunction:
    """Atomwise-constant function: real, structure-valued, or signed."""

    __slots__ = ("kind", "desc", "values")

    def __init__(self, kind, desc, values):
        self.kind = kind
        self.desc = desc
        self.values = dict(values)

    @classmethod
    def real(cls, values: dict) -> "SimpleFunction":
        for v in values.values():
            if not isinstance(v, XReal):
                raise ShapeError(f"real-valued functions take extended rationals, got {v!r}")
        return cls("real", None, values)

    @classmethod
    def lvalued(cls, desc, values: dict) -> "SimpleFunction":
        for v in values.values():
            check_value(desc, v)
        return cls("lvalued", desc, values)

    @classmethod
    def signed(cls, desc, values: dict) -> "SimpleFunction":
        if kernel_of(desc).neg is None:
            raise ShapeError("signed functions need a double() descriptor")
        for v in values.values():
            check_value(desc, v)
        return cls("signed", desc, values)

    def at(self, atom: str):
        if atom not in self.values:
            raise DomainError(f"function has no value at atom {atom!r}")
        return self.values[atom]


def _in_atom_order(m: LMeasure, A) -> list:
    """The atoms of the event A, in atom order."""
    return sorted(m.space.check_event(A), key=m.space.position.__getitem__)


def _require_sliceable(d):
    if not kernel_of(d).sliceable:
        raise CapabilityError("integration needs an (integer level, rational residue) measure")


def integrate_real(m: LMeasure, f: SimpleFunction, A) -> Value:
    """Level-sum integral of a nonnegative real-valued function."""
    if f.kind != "real":
        raise ShapeError("expected a real-valued function")
    _require_sliceable(m.desc)
    terms = []
    for a in _in_atom_order(m, A):
        fa, v = f.at(a), m.atom_values[a]
        if v is not ZERO and not fa.is_zero:
            terms.append(v if v is TOP else Pair(v.level, Scalar(fa * v.residue.x)))
    return kernel_of(m.desc).sum(terms)


def integrate_lvalued(m: LMeasure, g: SimpleFunction, B) -> Value:
    """Integral of a structure-valued function, by level partition."""
    if g.kind != "lvalued":
        raise ShapeError("expected a structure-valued function")
    _require_sliceable(m.desc)
    atoms = _in_atom_order(m, B)

    def go(desc, values, atoms) -> Value:
        k = kernel_of(desc)
        if k.base is not None:
            if k.base not in ("Rc", "Ro"):
                raise CapabilityError(f"cannot integrate values of {desc!r}")
            f = SimpleFunction.real({a: values[a].x for a in atoms})
            return integrate_real(m, f, atoms)
        if not k.int_levels:
            raise CapabilityError("integrand must be a right-nested integer-leveled structure")
        parts = {}
        for a in atoms:
            v = values[a]
            if v is ZERO:
                continue
            if v is TOP:
                raise DomainError("a top-valued integrand has no level partition")
            parts.setdefault(v.level.x, []).append(a)
        return kernel_of(m.desc).sum([
            shift(m.desc, go(desc.b, {a: values[a].residue for a in part_atoms}, part_atoms), k)
            for k, part_atoms in parts.items()
        ])

    return go(g.desc, {a: g.at(a) for a in atoms}, atoms)


def integrate_signed(m: LMeasure, f: SimpleFunction, A) -> Value:
    """Signed integral: split into positive and negative parts, combine."""
    if f.kind != "signed":
        raise ShapeError("expected a signed function")
    dd = f.desc
    atoms = _in_atom_order(m, A)
    plus, minus = {}, {}
    for a in atoms:
        v = f.at(a)
        if v is ZERO:
            plus[a] = minus[a] = ZERO
        elif v.sign > 0:
            plus[a], minus[a] = v.mag, ZERO
        else:
            plus[a], minus[a] = ZERO, v.mag
    p = integrate_lvalued(m, SimpleFunction.lvalued(dd.inner, plus), atoms)
    n = integrate_lvalued(m, SimpleFunction.lvalued(dd.inner, minus), atoms)
    if p is TOP or n is TOP:
        raise DomainError("signed integral with an unbounded part is undefined")
    p_signed = ZERO if is_zero(dd.inner, p) else Signed(1, p)
    n_signed = ZERO if is_zero(dd.inner, n) else Signed(-1, n)
    return kernel_of(dd).add(p_signed, n_signed)
