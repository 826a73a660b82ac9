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

Both follow one rule over kernel members, innermost first.  A base's
multiples reach its ``repeat_limit`` (``inf`` in ``Rc`` and ``Nbar0``)
or are unbounded; a pair's keep its level while its residue's have a
limit.  Where they are unbounded, a sum fails, and a least upper bound is
the least element above the level, ``step_up``: one level up, ``top`` in
a bar pairing, or, above a greatest level, the next level out's bound.
Where elements lie above the level but none is least (after a finite
``Rc`` level, say), there is no least bound: ``NotRepresentableError``.
"""

from __future__ import annotations

from .errors import CapabilityError, DomainError, NotRepresentableError, NotSummableError
from .kernel import DENSE, NOTHING_ABOVE, kernel_of
from .values import TOP, ZERO, Pair, Scalar, Value, check_value


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


def require_int_levels(d):
    if not kernel_of(d).int_levels:
        raise CapabilityError("infinite tails need an integer-leveled insertion structure")


def least_positive(d) -> Value:
    """The least element above zero, which the kernel builds where ``facts(d).least_positive`` holds."""
    lp = kernel_of(d).least_positive
    if lp is None:
        raise NotRepresentableError(f"{d!r} has no least positive element")
    return lp


def _limit(k, v: Value, step_up: bool):
    """The sum of v, v, v, ... in k's structure, or with step_up the least upper bound of v, 2v, 3v, ...

    NOTHING_ABOVE where the multiples are unbounded (a sum: within their level).
    """
    if v is TOP or k.is_zero(v):
        return v
    if k.residue_kernel is None:
        return NOTHING_ABOVE if k.repeat_limit is None else k.repeat_limit
    bound = _limit(k.residue_kernel(v.level), v.residue, step_up)
    if bound is not NOTHING_ABOVE:
        return Pair(v.level, bound)
    if not step_up:
        return bound
    bound = k.step_up(v.level)  # the residues are unbounded: the least element above their level
    if bound is DENSE:  # bounded, but with no least bound
        raise NotRepresentableError("residues at the top level have no least upper bound in this structure")
    return bound


def _tail_term(d, tail, unbounded: Exception) -> Value:
    """Check a tail against d: the value it repeats, or its ramp's first term; for a level ramp top, or unbounded."""
    require_int_levels(d)
    if isinstance(tail, Repeat):
        return check_value(d, tail.value)
    if isinstance(tail, ResidueRamp):
        return check_value(d, Pair(Scalar(tail.level), tail.step))
    check_value(d, Pair(Scalar(tail.start), tail.residue))
    if kernel_of(d).facts.top:
        return TOP
    raise unbounded


def sum_sequence(d, s: SeqGen) -> Value:
    """Evaluate a countable sum: the head's sum, plus the tail's unless the head dominates it."""
    k = kernel_of(d)
    head = k.sum([k.check(v) for v in s.head])
    if s.tail is None or head is TOP:
        return head
    term = _tail_term(d, s.tail, NotSummableError("levels are unbounded above and the structure has no top"))
    total = _limit(k, term, False)
    if total is not NOTHING_ABOVE:
        return k.add(head, total)  # top absorbs, zero adds nothing, a head at a greater level wins
    if head is not ZERO and head.level.x > term.level.x:  # the head dominates the tail
        return head
    raise NotSummableError(f"a countable repeat does not evaluate in {d!r}")


def sup_finite(d, values) -> Value:
    """Least upper bound of a finite set: its maximum."""
    vals = list(values)
    if not vals:
        raise DomainError("sup of an empty set is undefined")
    k, best = kernel_of(d), None
    for v in vals:
        check_value(d, v)
        if best is None or k.cmp(v, best) > 0:
            best = v
    return best


def sup_sequence(d, s: SeqGen) -> Value:
    """Least upper bound of a SeqGen family."""
    candidates = [check_value(d, v) for v in s.head]
    if TOP in candidates:  # top bounds every tail
        return TOP
    if s.tail is not None:
        term = _tail_term(d, s.tail, NotRepresentableError("the level set is unbounded and the structure has no top"))
        # an integer level has a successor, so the bound of a residue ramp is never NOTHING_ABOVE
        candidates.append(term if isinstance(s.tail, Repeat) else _limit(kernel_of(d), term, True))
    return sup_finite(d, candidates)
