"""Level-valued measures on finite atom spaces.

An atom space is a finite list of named atoms whose powerset is the
sigma-algebra, so countable additivity is finite additivity and every
event evaluates by folding the atom values with level-dominant addition.

Level bookkeeping lives here too: slices (the ordinary extended-real
measure read off at one level), recovery of a measure from its slices,
total height, interior-gap alignment and level shifts.
"""

from __future__ import annotations

from .descriptors import Base, BarInsert, Insert, StructDesc
from .errors import DomainError, InconsistentSlicesError, ShapeError
from .ops import _add, shift
from .values import TOP, ZERO, Pair, Scalar, Value, check_value, zero
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

    def check_event(self, members) -> frozenset:
        ev = frozenset(members)
        unknown = ev - self._atom_set
        if unknown:
            raise DomainError(f"unknown atoms {sorted(unknown)}")
        return ev

    def event(self, name: str) -> frozenset:
        """Resolve an event name; atom ids double as singleton events, X is everything."""
        if name in self.events:
            return self.events[name]
        if name in self._atom_set:
            return frozenset((name,))
        if name == "X":
            return frozenset(self.atoms)
        raise DomainError(f"unknown event {name!r}")


def _int_leveled(d: StructDesc) -> bool:
    return isinstance(d, (Insert, BarInsert)) and isinstance(d.a, Base) and d.a.name in ("N0", "Z")


class LMeasure:
    """Finite atom space with one structure value per atom."""

    def __init__(self, desc: StructDesc, space: AtomSpace, atom_values: dict):
        missing = set(space.atoms) - set(atom_values)
        if missing:
            raise DomainError(f"atoms without values: {sorted(missing)}")
        extra = set(atom_values) - set(space.atoms)
        if extra:
            raise DomainError(f"values for unknown atoms: {sorted(extra)}")
        for v in atom_values.values():
            check_value(desc, v)
        self.desc = desc
        self.space = space
        self.atom_values = dict(atom_values)

    def value(self, E) -> Value:
        """The measure of an event (any iterable of atom ids)."""
        ev = self.space.check_event(E)
        acc = zero(self.desc)
        for a in self.space.atoms:
            if a in ev:
                acc = _add(self.desc, acc, self.atom_values[a])
        return acc

    def total(self) -> Value:
        return self.value(self.space.atoms)

    def attained_levels(self):
        """Sorted integer levels carried by the atoms (tops and zeros excluded)."""
        if not _int_leveled(self.desc):
            raise ShapeError("measure values do not have an integer top level")
        levels = set()
        for v in self.atom_values.values():
            if isinstance(v, Pair):
                levels.add(v.level.x)
        return sorted(levels)


def slice_at(m: LMeasure, k: int, E) -> XReal:
    """The ordinary extended-real measure read off at level k."""
    d = m.desc
    if not (_int_leveled(d) and isinstance(d.b, Base) and d.b.name in ("Rc", "Ro")):
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


def recover_from_slices(desc: StructDesc, space: AtomSpace, slices: dict) -> LMeasure:
    """Rebuild a measure from per-level atom slices.

    ``slices`` maps level -> {atom -> XReal}.  For each atom the value is
    (j, s_j) for the largest level j with positive slice; an infinite
    slice at that top level is ambiguous (it also encodes "level above")
    and is rejected.
    """
    atom_values = {}
    for a in space.atoms:
        best = None
        for lev in sorted(slices, reverse=True):
            s = slices[lev].get(a, XR_ZERO)
            if not s.is_zero:
                best = (lev, s)
                break
        if best is None:
            atom_values[a] = ZERO
            continue
        lev, s = best
        if s.is_inf:
            raise InconsistentSlicesError(
                f"atom {a!r} carries an infinite slice at its own top level {lev}"
            )
        atom_values[a] = Pair(Scalar(lev), Scalar(s))
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
    measure with no interior gaps (proximal) is returned unchanged.
    """
    levels = m.attained_levels()
    if not levels:
        return m
    top = levels[-1]
    remap = {lev: top - rank for rank, lev in enumerate(reversed(levels))}
    atom_values = {}
    for a, v in m.atom_values.items():
        if isinstance(v, Pair):
            atom_values[a] = Pair(Scalar(remap[v.level.x]), v.residue)
        else:
            atom_values[a] = v
    return LMeasure(m.desc, m.space, atom_values)


def is_proximal(m: LMeasure) -> bool:
    levels = m.attained_levels()
    return not levels or levels[-1] - levels[0] + 1 == len(levels)


def shift_levels(m: LMeasure, k: int) -> LMeasure:
    """Multiply every atom value by (k, 1)."""
    atom_values = {a: shift(m.desc, v, k) for a, v in m.atom_values.items()}
    return LMeasure(m.desc, m.space, atom_values)
