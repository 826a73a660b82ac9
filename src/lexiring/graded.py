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

from .descriptors import OBAR
from .errors import DomainError
from .kernel import kernel_of
from .values import TOP, Pair, Scalar, Value
from .xreal import INF, XReal

GRADED_DESC = OBAR  # values of the canonical graded measure live here


class IntervalPiece:
    """One open rational interval (lo, hi) inside (0, inf] at one integer level."""

    __slots__ = ("level", "lo", "hi")

    def __init__(self, level: int, lo: XReal, hi: XReal):
        if lo.is_inf:
            raise DomainError("interval start cannot be inf")
        if hi < lo:
            raise DomainError("interval endpoints out of order")
        self.level = level
        self.lo = lo
        self.hi = hi

    @property
    def length(self) -> XReal:
        return self.hi.minus(self.lo)

    def contains(self, t: XReal) -> bool:
        return self.lo < t < self.hi


class GradedIntervalSet:
    def __init__(self, pieces, cofinal: bool = False):
        self.pieces = list(pieces)
        self.cofinal = cofinal
        by_level = {}
        for p in self.pieces:
            by_level.setdefault(p.level, []).append(p)
        for level, ps in by_level.items():
            ps.sort(key=lambda p: p.lo)
            for prev, cur in zip(ps, ps[1:]):
                if cur.lo < prev.hi:
                    raise DomainError(f"overlapping intervals at level {level}")


def graded_measure(E: GradedIntervalSet) -> Value:
    """Measure of a leveled interval set, valued in the barred structure: the sum of its pieces."""
    if E.cofinal:
        return TOP
    return kernel_of(GRADED_DESC).sum(
        [Pair(Scalar(p.level), Scalar(p.length)) for p in E.pieces if not p.length.is_zero])


def verify_open_graded(k: int) -> bool:
    """Desk-scale openness check of the sub-(k, inf) region.

    Builds the family of open intervals between the quarters 1/4 .. 15/4
    at levels in [k - 3, k + 3], marks every sampled point covered by a
    family member of measure < (k, inf) or measure 0, and confirms that
    the marked set is exactly the open down-set of points at levels <= k.
    """
    cmp, threshold = kernel_of(GRADED_DESC).cmp, Pair(Scalar(k), Scalar(INF))
    samples = [XReal(i, 4) for i in range(1, 16)]
    family = []
    for level in range(k - 3, k + 4):
        for i, lo in enumerate(samples):
            for hi in samples[i + 1:]:
                family.append(IntervalPiece(level, lo, hi))
    covered = set()
    for piece in family:
        if cmp(graded_measure(GradedIntervalSet([piece])), threshold) >= 0:
            continue
        for t in samples:
            if piece.contains(t):
                covered.add((piece.level, t))
    expected = {(lev, t) for lev in range(k - 3, k + 1) for t in samples[1:-1]}
    # interior sample points at levels <= k must be covered, none above
    for lev, t in expected:
        if (lev, t) not in covered:
            return False
    for lev, t in covered:
        if lev > k:
            return False
    return True
