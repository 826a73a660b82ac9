"""The canonical open-graded measure on the leveled half-line picture.

The underlying space is the disjoint union of copies of (0, inf], one per
integer level, ordered lexicographically (plus a bottom point and a top
point).  A Borel set is described desk-scale as finitely many rational
intervals per level; its measure is the sum in ``Obar`` (``Kernel.sum``)
of the pairs (level, length) of its pieces of positive length, which is
(j, length at level j) for the largest level j carrying positive length.
A set flagged ``cofinal`` has positive length at every level and
measures ``top``.

``verify_open_graded`` checks, over a sampled window, that the points
witnessed by open family intervals of measure below (k, inf) are exactly
the points at levels <= k, a downward-closed set without a greatest
element, hence open in the order topology.
"""

from __future__ import annotations

import functools

from .descriptors import OBAR
from .errors import DomainError
from .kernel import kernel_of
from .values import TOP, ZERO, Pair, Scalar, Value
from .xreal import XReal

GRADED_DESC = OBAR  # values of the canonical graded measure live here


class IntervalPiece:
    """One rational interval inside (0, inf] at one integer level."""

    __slots__ = ("level", "lo", "hi", "lo_open", "hi_open")

    def __init__(self, level: int, lo: XReal, hi: XReal, lo_open: bool = True, hi_open: bool = True):
        if lo.is_inf:
            raise DomainError("interval start cannot be inf")
        if hi < lo:
            raise DomainError("interval endpoints out of order")
        self.level = level
        self.lo = lo
        self.hi = hi
        self.lo_open = lo_open
        self.hi_open = hi_open

    @property
    def length(self) -> XReal:
        return self.hi.minus(self.lo)

    def contains(self, t: XReal) -> bool:
        if t < self.lo or (t == self.lo and self.lo_open):
            return False
        if t > self.hi or (t == self.hi and self.hi_open):
            return False
        return True


class GradedIntervalSet:
    def __init__(self, pieces, cofinal: bool = False):
        self.pieces = list(pieces)
        self.cofinal = cofinal
        by_level = {}
        for p in self.pieces:
            by_level.setdefault(p.level, []).append(p)
        for level, ps in by_level.items():
            ps.sort(key=functools.cmp_to_key(lambda a, b: a.lo._cmp(b.lo)))
            for prev, cur in zip(ps, ps[1:]):
                if cur.lo < prev.hi:
                    raise DomainError(f"overlapping intervals at level {level}")


def graded_measure(E: GradedIntervalSet) -> Value:
    """Measure of a leveled interval set, valued in the barred structure: the sum of its pieces."""
    if E.cofinal:
        return TOP
    return kernel_of(GRADED_DESC).sum(
        [Pair(Scalar(p.level), Scalar(p.length)) for p in E.pieces if not p.length.is_zero])


def verify_open_graded(k: int, window: int = 3, grid: int = 4) -> bool:
    """Desk-scale openness check of the sub-(k, inf) region.

    Builds the family of open rational intervals at levels in
    [k - window, k + window], marks every sampled point covered by a
    family member of measure < (k, inf) or measure 0, and confirms that
    the marked set is exactly the open down-set of points at levels <= k.
    """
    threshold = Pair(Scalar(k), Scalar(XReal(1, 1)))  # any (k, t); only the level matters
    samples = [XReal(i, grid) for i in range(1, 4 * grid)]
    family = []
    for level in range(k - window, k + window + 1):
        for i, lo in enumerate(samples):
            for hi in samples[i + 1:]:
                family.append(IntervalPiece(level, lo, hi))
    covered = set()
    for piece in family:
        v = graded_measure(GradedIntervalSet([piece]))
        below = v is ZERO or (
            v is not TOP and (v.level.x < threshold.level.x
                              or (v.level.x == threshold.level.x and not v.residue.x.is_inf))
        )
        if not below:
            continue
        for t in samples:
            if piece.contains(t):
                covered.add((piece.level, t))
    expected = {(lev, t) for lev in range(k - window, k + 1) for t in samples[1:-1]}
    # interior sample points at levels <= k must be covered, none above
    for lev, t in expected:
        if (lev, t) not in covered:
            return False
    for lev, t in covered:
        if lev > k:
            return False
    return True
