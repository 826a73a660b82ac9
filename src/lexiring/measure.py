"""Level-valued measures on finite atom spaces.

An atom space is a finite list of named atoms whose powerset is the
sigma-algebra, so countable additivity is finite additivity and every
event evaluates by folding the atom values with level-dominant addition:
``LMeasure.value`` is one scan of the atoms in atom order and one
``Kernel.sum`` over the members, which compares levels and adds only the
residues at the dominant level.

``LMeasure(...)`` checks every value it is given.  ``shift_levels`` and
``align_levels`` build from a measure that was checked already, so they
check only what can newly fall outside the structure: ``shift_levels``
checks each distinct new level once (an ``N0`` level may not go below 0),
and ``align_levels`` moves levels only between attained ones.

Level bookkeeping lives here too: slices (the ordinary extended-real
measure read off at one level), recovery of a measure from its slices,
total height, interior-gap alignment and level shifts.
"""

from __future__ import annotations

from functools import cached_property

from .descriptors import Base, StructDesc
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
            raise DomainError(f"an event is a list of atom ids, not {members!r}") from None
        unknown = ev - self._atom_set
        if unknown:
            raise DomainError(f"unknown atoms {sorted(unknown, key=repr)}")  # members may mix kinds
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


def is_sliceable(d: StructDesc) -> bool:
    """Integer levels over a rational residue: what slices and integrals need."""
    return kernel_of(d).int_levels and isinstance(d.b, Base) and d.b.name in ("Rc", "Ro")


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

    @classmethod
    def _built(cls, desc: StructDesc, space: AtomSpace, atom_values: dict) -> "LMeasure":
        """A measure over a new dict of values already well-shaped for desc: nothing is re-checked."""
        m = cls.__new__(cls)
        m.desc, m.space, m.atom_values = desc, space, atom_values
        return m

    def value(self, E) -> Value:
        """The measure of an event (any iterable of atom ids)."""
        ev = self.space.check_event(E)
        vals = self.atom_values
        return kernel_of(self.desc).sum([vals[a] for a in self.space.atoms if a in ev])

    def total(self) -> Value:
        return self.value(self.space.atoms)

    def attained_levels(self):
        """Sorted integer levels carried by the atoms (tops and zeros excluded)."""
        if not kernel_of(self.desc).int_levels:
            raise ShapeError("measure values do not have an integer top level")
        levels = set()
        for v in self.atom_values.values():
            if isinstance(v, Pair):
                levels.add(v.level.x)
        return sorted(levels)


def slice_at(m: LMeasure, k: int, E) -> XReal:
    """The ordinary extended-real measure read off at level k."""
    d = m.desc
    if not is_sliceable(d):
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

    ``slices`` maps level -> {atom -> XReal}.  Each atom's value is the
    ``Kernel.sum`` of its positive slices as pairs (level, slice): (j, s_j)
    for the largest level j with positive slice.  An infinite slice at
    that top level is ambiguous (it also encodes "level above") and is
    rejected.
    """
    if not is_sliceable(desc):
        raise ShapeError("slices need an (integer level, rational residue) structure")
    k, atom_values = kernel_of(desc), {}
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
    measure with no interior gaps (proximal) is returned unchanged.
    """
    levels = m.attained_levels()
    if not levels:
        return m
    top = levels[-1]
    # each level moves up to at most the top: it stays inside N0 or Z, so nothing needs a check
    remap = {lev: Scalar(top - rank) for rank, lev in enumerate(reversed(levels))}
    atom_values = {}
    for a, v in m.atom_values.items():
        if isinstance(v, Pair):
            atom_values[a] = Pair(remap[v.level.x], v.residue)
        else:
            atom_values[a] = v
    return LMeasure._built(m.desc, m.space, atom_values)


def is_proximal(m: LMeasure) -> bool:
    levels = m.attained_levels()
    return not levels or levels[-1] - levels[0] + 1 == len(levels)


def shift_levels(m: LMeasure, k: int) -> LMeasure:
    """Multiply every atom value by (k, 1); each distinct new level is checked once."""
    d, moved, atom_values = m.desc, {}, {}  # moved: old level -> the checked new level
    for a, v in m.atom_values.items():
        if v is not ZERO and v is not TOP:
            if not moved:
                require_shiftable(d)
            lev = v.level.x
            if lev not in moved:
                moved[lev] = kernel_of(d.a).check(Scalar(lev + k))
            v = Pair(moved[lev], v.residue)
        atom_values[a] = v
    return LMeasure._built(d, m.space, atom_values)
