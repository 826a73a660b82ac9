"""Weight systems on branched graphs and their multiplier cocycles.

A branched graph is a set of sectors and a set of switches; each switch
has two sides, each side an ordered list of sector-ends.  A weight
system assigns a structure value to each sector, and the branch equation
at a switch says the two side sums agree.  A cocycle attaches an
invertible multiplier to some sector-ends; walking through such an end
multiplies the sector weight, which is how a weight system can satisfy
its equations only locally (the global data differ by level shifts and
stretches).
"""

from __future__ import annotations

from .errors import DomainError, ShapeError
from .kernel import kernel_of
from .ops import try_inv
from .values import Value, check_value, format_value, is_zero, level_vector, one, stack_levels, zero


class BranchedGraph:
    def __init__(self, sectors, switches):
        """switches: iterable of (side1, side2); sides are lists of (sector, end)."""
        self.sectors = list(sectors)
        if len(set(self.sectors)) != len(self.sectors):
            raise DomainError("sector identifiers must be distinct")
        sector_set = set(self.sectors)
        self.switches = []
        seen_ends = set()
        for side1, side2 in switches:
            side1 = [tuple(e) for e in side1]
            side2 = [tuple(e) for e in side2]
            if not side1 or not side2:
                raise DomainError("every switch side needs at least one sector-end")
            for sec, end in side1 + side2:
                if sec not in sector_set:
                    raise DomainError(f"unknown sector {sec!r} in a switch")
                if (sec, end) in seen_ends:
                    raise DomainError(f"sector-end ({sec!r},{end!r}) appears twice")
                seen_ends.add((sec, end))
            self.switches.append((side1, side2))

    def ends_of(self, sector):
        out = []
        for side1, side2 in self.switches:
            for sec, end in side1 + side2:
                if sec == sector:
                    out.append((sec, end))
        return out


class WeightSystem:
    def __init__(self, desc, weights: dict):
        self.desc = desc
        self.weights = dict(weights)
        for v in self.weights.values():
            check_value(desc, v)

    def weight(self, sector) -> Value:
        return self.weights.get(sector, zero(self.desc))


class Cocycle:
    """Invertible multipliers at sector-end crossings."""

    def __init__(self, desc, crossings: dict):
        self.desc = desc
        self.crossings = {}
        for (sec, end), v in crossings.items():
            check_value(desc, v)
            try_inv(desc, v)  # must be invertible
            self.crossings[(sec, end)] = v

    def multiplier(self, sector, end) -> Value:
        return self.crossings.get((sector, end))

    def is_empty(self) -> bool:
        return not self.crossings


def _side_sum(w: WeightSystem, c: Cocycle, side) -> Value:
    k, terms = kernel_of(w.desc), []
    for sec, end in side:
        term = w.weight(sec)
        m = c.multiplier(sec, end)
        terms.append(term if m is None else k.mul(m, term))
    return k.sum(terms)


def check_branch_equations(g: BranchedGraph, w: WeightSystem, c: Cocycle) -> dict:
    """Per-switch equality of the two multiplier-weighted side sums."""
    if not c.is_empty() and c.desc != w.desc:
        raise ShapeError("cocycle multipliers and weights live in different structures")
    for sec in w.weights:
        if sec not in g.sectors:
            raise DomainError(f"weight on unknown sector {sec!r}")
    switches = []
    ok = True
    for idx, (side1, side2) in enumerate(g.switches):
        s1 = _side_sum(w, c, side1)
        s2 = _side_sum(w, c, side2)
        equal = s1 == s2
        ok = ok and equal
        switches.append(
            {
                "switch": idx,
                "side1": format_value(w.desc, s1),
                "side2": format_value(w.desc, s2),
                "equal": equal,
            }
        )
    return {"ok": ok, "switches": switches}


def apply_deck(w: WeightSystem, lam: Value) -> WeightSystem:
    """Rescale every weight by an invertible scalar."""
    check_value(w.desc, lam)
    if is_zero(w.desc, lam):
        raise DomainError("deck scalars must be nonzero")
    try_inv(w.desc, lam)
    return WeightSystem(w.desc, {s: kernel_of(w.desc).mul(lam, v) for s, v in w.weights.items()})


def _cocycle_depth(d) -> int:
    n = kernel_of(d).prob_depth
    if n is None:
        raise ShapeError("cocycle multipliers must live in a probability semifield")
    return n


def cocycle_split(c: Cocycle):
    """Separate each multiplier into its level shifts and its stretch.

    For single-stack multipliers the level map is one integer per
    crossing; nested multipliers give a tuple of integers.  Recombining
    with ``cocycle_join`` reproduces the cocycle.
    """
    n = _cocycle_depth(c.desc)
    level_map, stretch = {}, {}
    for key, v in c.crossings.items():
        vec, s = level_vector(v, n)
        level_map[key] = vec[0] if n == 1 else vec
        stretch[key] = s
    return level_map, stretch


def cocycle_join(desc, level_map: dict, stretch: dict) -> Cocycle:
    n = _cocycle_depth(desc)
    crossings = {}
    for key, lev in level_map.items():
        vec = (lev,) if isinstance(lev, int) else tuple(lev)
        if len(vec) != n:
            raise ShapeError(f"level vector {vec} does not match nesting depth {n}")
        crossings[key] = stack_levels(vec, stretch[key])
    return Cocycle(desc, crossings)


def gauge_move(g: BranchedGraph, w: WeightSystem, c: Cocycle, sector, unit: Value):
    """Divide one sector's weight by a unit and push the unit into the
    multipliers at every switch-incident end of that sector.

    Every side sum is unchanged, so the branch-equation report is
    invariant under this move.
    """
    check_value(w.desc, unit)
    u_inv = try_inv(w.desc, unit)
    new_weights = dict(w.weights)
    new_weights[sector] = kernel_of(w.desc).mul(u_inv, w.weight(sector))
    new_crossings = dict(c.crossings)
    for end in g.ends_of(sector):
        cur = new_crossings.get(end, one(w.desc))
        new_crossings[end] = kernel_of(w.desc).mul(unit, cur)
    return WeightSystem(w.desc, new_weights), Cocycle(w.desc, new_crossings)
