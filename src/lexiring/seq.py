"""Countable sequences with decidable sums and least upper bounds.

Only finitely describable families are representable: a finite head plus
an optional infinite tail.  Tails come in three forms over a descriptor
with integer levels:

  * ``Repeat(v)``              -- v, v, v, ...
  * ``LevelRamp(start, step, residue)`` -- (start, r), (start+step, r), ...
    with step >= 1, so the level set is unbounded above.
  * ``ResidueRamp(level, step)``        -- (level, step), (level, 2*step), ...
    multiples taken by repeated residue addition.

A sum with unbounded levels evaluates to ``top`` in a bar structure and
is otherwise an error.  With bounded levels the sum lives at the greatest
attained level; countably many contributions there force an infinite
residue, which only structures with infinities can absorb.

The least upper bound of a residue ramp is taken innermost first: an
``Rc`` or ``Nbar0`` residue reaches ``inf``.  Where the multiples are
unbounded within a level, the bound steps one level up, to the least
element there: after a finite ``N0``, ``Z`` or ``Nbar0`` level, with a
zero residue in a full product (``\\/``) and the least positive residue
(``facts(d).least_positive``) in an insertion.  Above an ``inf`` or
``top`` level only a bar pairing's adjoined ``top`` lies, which is then
the bound; elsewhere the next level out steps up instead.  After a
finite ``Rc``/``Ro`` level, or where an insertion's residues have no
least positive element, the multiples are bounded but have no least
bound: ``NotRepresentableError``.  A composite level is not stepped up
(``NotRepresentableError``), nor is a ``mixed(...)`` one
(``CapabilityError``).
"""

from __future__ import annotations

from .descriptors import Base, BarInsert, BarSInsert, MixedInsert, SInsert, StructDesc, facts
from .errors import CapabilityError, DomainError, NotRepresentableError, NotSummableError, ShapeError
from .kernel import kernel_of
from .ops import _add, _cmp
from .values import TOP, ZERO, Pair, Scalar, Value, check_value, is_zero, zero
from .xreal import INF, XReal


class Repeat:
    __slots__ = ("value",)

    def __init__(self, value: Value):
        self.value = value


class LevelRamp:
    __slots__ = ("start", "step", "residue")

    def __init__(self, start: int, step: int, residue: Value):
        if step < 1:
            raise DomainError("level ramp step must be a positive integer")
        self.start = start
        self.step = step
        self.residue = residue


class ResidueRamp:
    __slots__ = ("level", "step")

    def __init__(self, level: int, step: Value):
        self.level = level
        self.step = step


class SeqGen:
    """Finite head plus optional infinite tail."""

    __slots__ = ("head", "tail")

    def __init__(self, head=(), tail=None):
        self.head = tuple(head)
        self.tail = tail


def require_int_levels(d: StructDesc):
    if not kernel_of(d).int_levels:
        raise CapabilityError("infinite tails need an integer-leveled insertion structure")


def least_positive(d: StructDesc) -> Value:
    """The least element greater than zero, which exists where ``facts(d).least_positive`` holds."""
    if not facts(d).least_positive:
        raise NotRepresentableError(f"{d!r} has no least positive element")
    if isinstance(d, Base):
        return Scalar(XReal(1) if d.name == "Nbar0" else 1)
    return Pair(zero(d.a), least_positive(d.b))


def repeat_sum(d: StructDesc, v: Value) -> Value:
    """The countable sum v + v + v + ... evaluated in d."""
    if is_zero(d, v):
        return zero(d)
    if v is TOP:
        return TOP
    if isinstance(d, Base):
        if d.name in ("Rc", "Nbar0"):
            return Scalar(INF)
        raise NotSummableError(f"a countable repeat does not evaluate in {d!r}")
    if isinstance(v, Pair):
        sub = d.residue_desc(v.level.x) if isinstance(d, MixedInsert) else d.b
        return Pair(v.level, repeat_sum(sub, v.residue))
    raise ShapeError(f"cannot repeat {v!r} in {d!r}")


class _Unbounded(Exception):
    pass


def _sup_multiples(d: StructDesc, step: Value) -> Value:
    """Least upper bound of {step, 2*step, 3*step, ...}; _Unbounded if nothing in d bounds them."""
    if step is TOP:
        return TOP
    if is_zero(d, step):
        return zero(d)
    if isinstance(d, Base):
        if d.name in ("Rc", "Nbar0"):
            return Scalar(INF)
        raise _Unbounded()
    if not isinstance(step, Pair):
        raise ShapeError(f"cannot form multiples of {step!r} in {d!r}")
    level, mixed = step.level, isinstance(d, MixedInsert)
    try:
        return Pair(level, _sup_multiples(d.residue_desc(level.x) if mixed else d.b, step.residue))
    except _Unbounded:
        if mixed:
            raise CapabilityError(f"residue multiples in {d!r} do not step up a level") from None
        # the bound is the least element one level up, after a finite N0, Z or Nbar0 level
        x = level.x if isinstance(level, Scalar) else None
        if level is TOP or isinstance(x, XReal) and x.is_inf:
            if isinstance(d, (BarInsert, BarSInsert)):
                return TOP  # only the adjoined top lies above this level
            raise  # nothing lies above this level: the multiples are unbounded here too
        if not isinstance(d.a, Base):
            raise NotRepresentableError(f"residue multiples in {d!r} do not step up a composite level") from None
        if d.a.name in ("N0", "Z", "Nbar0"):
            up = Scalar(x + (XReal(1) if isinstance(x, XReal) else 1))
            if isinstance(d, (SInsert, BarSInsert)):
                return Pair(up, zero(d.b))  # a full product keeps zero residues
            if facts(d.b).least_positive:
                return Pair(up, least_positive(d.b))
        raise NotRepresentableError(  # bounded, but with no least bound
            "residues at the top level have no least upper bound in this structure") from None


def sum_sequence(d: StructDesc, s: SeqGen) -> Value:
    """Evaluate a countable sum: the head's sum, plus the tail's unless the head dominates it."""
    for v in s.head:
        check_value(d, v)
    head = kernel_of(d).sum(s.head)
    tail = s.tail
    if tail is None or head is TOP:
        return head
    require_int_levels(d)
    if isinstance(tail, LevelRamp):
        check_value(d, Pair(Scalar(tail.start), tail.residue))
        if facts(d).top:
            return TOP
        raise NotSummableError("levels are unbounded above and the structure has no top")
    if isinstance(tail, Repeat):
        check_value(d, tail.value)
        if tail.value is TOP or is_zero(d, tail.value):
            return _add(d, head, tail.value)  # top absorbs; zero adds nothing
        level, residue = tail.value.level, tail.value.residue
    else:
        level, residue = Scalar(tail.level), tail.step
        check_value(d, Pair(level, residue))
    if head is not ZERO and head.level.x > level.x:  # the head dominates the tail
        return head
    return _add(d, head, Pair(level, repeat_sum(d.b, residue)))


def sup_finite(d: StructDesc, values) -> Value:
    """Least upper bound of a finite set: its maximum."""
    vals = list(values)
    if not vals:
        raise DomainError("sup of an empty set is undefined")
    best = None
    for v in vals:
        check_value(d, v)
        if best is None or _cmp(d, v, best) > 0:
            best = v
    return best


def sup_sequence(d: StructDesc, s) -> Value:
    """Least upper bound of a finite set or a SeqGen family."""
    if not isinstance(s, SeqGen):
        return sup_finite(d, s)
    candidates = list(s.head)
    for v in candidates:
        check_value(d, v)
    tail = s.tail
    if tail is not None:
        require_int_levels(d)
    if isinstance(tail, LevelRamp):
        check_value(d, Pair(Scalar(tail.start), tail.residue))
        if facts(d).top:
            return TOP
        raise NotRepresentableError("the level set is unbounded and the structure has no top")
    if isinstance(tail, Repeat):
        check_value(d, tail.value)
        candidates.append(tail.value)
    elif isinstance(tail, ResidueRamp):
        # the level is an integer, so the multiples step up a level rather than escape unbounded
        candidates.append(_sup_multiples(d, check_value(d, Pair(Scalar(tail.level), tail.step))))
    if not candidates:
        return zero(d)
    best = candidates[0]
    for v in candidates[1:]:
        if _cmp(d, v, best) > 0:
            best = v
    return best
