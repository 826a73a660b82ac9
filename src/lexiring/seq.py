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
"""

from __future__ import annotations

from .descriptors import (
    Base,
    BarInsert,
    BarSInsert,
    Insert,
    SInsert,
    StructDesc,
    _every_set_has_least,
    _has_least_positive,
    has_top,
)
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
    """The least element greater than zero, where one exists."""
    if isinstance(d, Base):
        if d.name == "N0":
            return Scalar(1)
        if d.name == "Nbar0":
            return Scalar(XReal(1))
        raise NotRepresentableError(f"{d!r} has no least positive element")
    if isinstance(d, (SInsert, BarSInsert)):
        return Pair(zero(d.a), least_positive(d.b))
    if isinstance(d, (Insert, BarInsert)):
        if not (isinstance(d.a, Base) and d.a.name in ("N0", "Nbar0")):
            raise NotRepresentableError(f"{d!r} has no least positive element")
        return Pair(zero(d.a), least_positive(d.b))
    raise NotRepresentableError(f"{d!r} has no least positive element")


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
        return Pair(v.level, repeat_sum(d.b, v.residue))
    raise ShapeError(f"cannot repeat {v!r} in {d!r}")


class _Unbounded(Exception):
    pass


def _next_level(x):
    """The level just above an integer or Nbar0 level x; None for inf."""
    if isinstance(x, XReal):
        return None if x.is_inf else x + XReal(1)
    return x + 1


def _sup_multiples(d: StructDesc, step: Value) -> Value:
    """Least upper bound of {step, 2*step, 3*step, ...}, or _Unbounded."""
    if step is TOP:
        return TOP
    if is_zero(d, step):
        return zero(d)
    if isinstance(d, Base):
        if d.name in ("Rc", "Nbar0"):
            return Scalar(INF)
        raise _Unbounded()
    if isinstance(step, Pair):
        try:
            return Pair(step.level, _sup_multiples(d.b, step.residue))
        except _Unbounded:
            # one level up with the least residue, when that makes sense: an integer
            # level, or a finite one of Nbar0 (whose levels are integral)
            lv = step.level
            up = _next_level(lv.x) if isinstance(lv, Scalar) else None
            if up is not None and _every_set_has_least(d.a) and _has_least_positive(d.b):
                return Pair(Scalar(up), least_positive(d.b))
            raise
    raise ShapeError(f"cannot form multiples of {step!r} in {d!r}")


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
        if has_top(d):
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
        if has_top(d):
            return TOP
        raise NotRepresentableError("the level set is unbounded and the structure has no top")
    if isinstance(tail, Repeat):
        check_value(d, tail.value)
        candidates.append(tail.value)
    elif isinstance(tail, ResidueRamp):
        step = tail.step
        check_value(d, Pair(Scalar(tail.level), step))
        try:
            u = _sup_multiples(d.b, step)
            candidates.append(Pair(Scalar(tail.level), u))
        except _Unbounded:
            if _every_set_has_least(d.a) and _has_least_positive(d.b):
                candidates.append(Pair(Scalar(tail.level + 1), least_positive(d.b)))
            else:
                raise NotRepresentableError(
                    "residues at the top level have no least upper bound in this structure"
                ) from None
    if not candidates:
        return zero(d)
    best = candidates[0]
    for v in candidates[1:]:
        if _cmp(d, v, best) > 0:
            best = v
    return best
