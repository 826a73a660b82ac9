"""Level-valued measures on finite atom spaces.

An atom space is a finite list of named atoms whose powerset is the
sigma-algebra, so countable additivity is finite additivity and every
event evaluates by folding the atom values with level-dominant addition:
``LMeasure.value`` is one scan of the atoms in atom order and one
``Kernel.sum`` over the members, which compares levels and adds only the
residues at the dominant level.

A measure keeps the values it was built with, shared between measures
and never mutated.  Over integer top levels (``Kernel.int_levels``) it
also keeps one map from each level those values attain to its current
level, in atom order: the identity until a write moves a level.  A
level shift (a product with (k, 1)) and the closing of interior gaps are
strictly increasing relabelings of the levels, so ``shift_levels`` and
``align_levels`` compose that map in O(levels) and touch no atom, and
``value`` relabels only the dominant level of its sum: a strictly
increasing relabeling keeps which level dominates.  ``atom_values`` is a
read-only view, built on first use.

``LMeasure(...)`` checks every value it is given.  The writes check only
what can newly fall outside the structure: ``shift_levels`` checks each
new level once, in atom order (an ``N0`` level may not go below 0), and
``align_levels`` moves levels only between attained ones.

Level bookkeeping lives here too: slices (the ordinary extended-real
measure read off at one level, where ``Kernel.sliceable``), recovery of a
measure from its slices, total height, interior-gap alignment and level
shifts.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType

from .errors import DomainError, InconsistentSlicesError, ShapeError
from .kernel import kernel_of
from .ops import require_shiftable
from .values import TOP, ZERO, Pair, Scalar, Value, check_value
from .xreal import INF, XReal
from .xreal import ZERO as XR_ZERO


class AtomSpace:
    """Ordered, distinct atom identifiers plus named events."""

    def __init__(self, atoms, events=None):
        atoms = list(atoms)
        if len(set(atoms)) != len(atoms):
            raise DomainError("atom identifiers must be distinct")
        self.atoms = atoms
        self._atom_set = frozenset(atoms)
        self.events = {}
        for name, members in (events or {}).items():
            self.events[name] = self.check_event(members)

    @cached_property
    def position(self) -> dict:
        """Each atom's index in atom order, built on first use."""
        return {a: i for i, a in enumerate(self.atoms)}

    def check_event(self, members) -> frozenset:
        if isinstance(members, str):
            raise DomainError(f"an event is a list of atom ids, not the string {members!r}")
        try:
            ev = frozenset(members)
        except TypeError:  # not iterable, or an unhashable member
            ev = None
        if ev is None or isinstance(members, dict):  # a dict would read as its keys
            raise DomainError(f"an event is a list of atom ids, not {members!r}")
        if not ev <= self._atom_set:
            raise DomainError(f"unknown atoms {sorted(ev - self._atom_set, key=repr)}")  # members may mix kinds
        return ev

    def event(self, name: str) -> frozenset:
        """Resolve an event name; atom ids double as singleton events, X is everything."""
        if name in self.events:
            return self.events[name]
        if name in self._atom_set:
            return frozenset((name,))
        if name == "X":
            return self._atom_set
        raise DomainError(f"unknown event {name!r}")


class LMeasure:
    """Finite atom space with one structure value per atom."""

    def __init__(self, desc, space: AtomSpace, atom_values: dict):
        missing = set(space.atoms) - set(atom_values)
        if missing:
            raise DomainError(f"atoms without values: {sorted(missing)}")
        extra = set(atom_values) - set(space.atoms)
        if extra:
            raise DomainError(f"values for unknown atoms: {sorted(extra)}")
        for v in atom_values.values():
            check_value(desc, v)
        self.desc, self.space, self._values, self._levels = desc, space, dict(atom_values), None

    @classmethod
    def _built(cls, desc, space: AtomSpace, values: dict, levels: dict | None = None) -> "LMeasure":
        """A measure over values already well-shaped for desc: nothing is re-checked, and values is kept.

        levels maps each level the values attain to its current level, in
        atom order; None is the identity.
        """
        m = cls.__new__(cls)
        m.desc, m.space, m._values, m._levels = desc, space, values, levels
        return m

    def _level_map(self) -> dict:
        """Each level the kept values attain -> its current level, in atom order."""
        if self._levels is None:
            if not kernel_of(self.desc).int_levels:
                raise ShapeError("measure values do not have an integer top level")
            self._levels = {v.level.x: v.level.x for v in self._values.values() if isinstance(v, Pair)}
        return self._levels

    def _sum(self, atoms) -> Value:
        """The measure of checked atoms: their kept values folded in the order given, then relabeled."""
        vals, levels = self._values, self._levels
        v = kernel_of(self.desc).sum([vals[a] for a in atoms])
        if levels is not None and isinstance(v, Pair) and levels[v.level.x] != v.level.x:
            return Pair(Scalar(levels[v.level.x]), v.residue)
        return v

    @cached_property
    def atom_values(self) -> MappingProxyType:
        """Each atom's current value, as a read-only view built on first use."""
        levels = self._levels
        if levels is None or all(base == now for base, now in levels.items()):
            return MappingProxyType(self._values)
        at = {base: Scalar(now) for base, now in levels.items()}
        return MappingProxyType({a: Pair(at[v.level.x], v.residue) if isinstance(v, Pair) else v
                                 for a, v in self._values.items()})

    def value(self, E) -> Value:
        """The measure of an event (any iterable of atom ids)."""
        ev = self.space.check_event(E)
        return self._sum(filter(ev.__contains__, self.space.atoms))

    def total(self) -> Value:
        return self.value(self.space.atoms)

    def attained_levels(self):
        """Sorted integer levels carried by the atoms (tops and zeros excluded)."""
        return sorted(self._level_map().values())


def slice_at(m: LMeasure, k: int, E) -> XReal:
    """The ordinary extended-real measure read off at level k."""
    if not kernel_of(m.desc).sliceable:
        raise ShapeError("slices need an (integer level, rational residue) structure")
    v = m.value(E)
    if v is ZERO:
        return XR_ZERO
    if v is TOP:
        return INF
    lev = v.level.x
    if lev == k:
        return v.residue.x
    return INF if lev > k else XR_ZERO


def recover_from_slices(desc, space: AtomSpace, slices: dict) -> LMeasure:
    """Rebuild a measure from per-level atom slices.

    ``slices`` maps level -> {atom -> XReal}.  Each atom's value is the
    ``Kernel.sum`` of its positive slices as pairs (level, slice): (j, s_j)
    for the largest level j with positive slice.  An infinite slice at
    that top level is ambiguous (it also encodes "level above") and is
    rejected.
    """
    k, atom_values = kernel_of(desc), {}
    if not k.sliceable:
        raise ShapeError("slices need an (integer level, rational residue) structure")
    for a in space.atoms:
        pieces = []
        for lev, per_atom in slices.items():
            s = per_atom.get(a, XR_ZERO)
            if not s.is_zero:
                pieces.append(Pair(Scalar(lev), Scalar(s)))
        v = atom_values[a] = k.sum(pieces)
        if v is not ZERO and v.residue.x.is_inf:
            raise InconsistentSlicesError(
                f"atom {a!r} carries an infinite slice at its own top level {v.level.x}"
            )
    return LMeasure(desc, space, atom_values)


def total_height(m: LMeasure) -> int:
    """max level - min level + 1 over the attained levels."""
    levels = m.attained_levels()
    if not levels:
        raise DomainError("the zero measure attains no levels")
    return levels[-1] - levels[0] + 1


def align_levels(m: LMeasure) -> LMeasure:
    """Close interior level gaps, keeping the top attained level fixed.

    Lower levels move up so the attained levels become consecutive; a
    measure with no interior gaps (proximal) keeps its levels.
    """
    levels = m.attained_levels()
    if not levels:
        return m
    top = levels[-1]
    # each level moves up to at most the top: it stays inside N0 or Z, so nothing needs a check
    remap = {lev: top - rank for rank, lev in enumerate(reversed(levels))}
    return LMeasure._built(m.desc, m.space, m._values, {base: remap[now] for base, now in m._level_map().items()})


def is_proximal(m: LMeasure) -> bool:
    levels = m.attained_levels()
    return not levels or levels[-1] - levels[0] + 1 == len(levels)


def shift_levels(m: LMeasure, k: int) -> LMeasure:
    """Multiply every atom value by (k, 1); each new level is checked once, in atom order."""
    d = m.desc
    if not kernel_of(d).int_levels:  # no level to move: refused unless every value is 0 or top
        if any(v is not ZERO and v is not TOP for v in m._values.values()):
            require_shiftable(d)
        return m
    check = require_shiftable(d).check
    return LMeasure._built(d, m.space, m._values,
                           {base: check(Scalar(now + k)).x for base, now in m._level_map().items()})
