"""Depth-valued probability on finite scenes.

A probability measure here takes values in the semifield of pairs
(integer level, finite positive rational); each attained level must
carry total mass one.  Events whose classical probability vanishes keep
a nonzero value at a negative level; ``depth`` is minus that level on a
standard measure.  Division makes conditional probability and Bayes
inference exact.

Nested variants (levels that are themselves leveled, up to three deep)
support validation, conditioning and Bayes; standardization for them is
shift-only, because closing lexicographic gaps is not meaningful on a
finite scene.

Cost, for N atoms: ``cond_prob`` evaluates two events, one scan of the
atoms each; ``bayes`` groups the atoms by cell in one pass and sums each
cell's prior and its part inside B once, so it takes a few scans of the
atoms whatever the number of cells.  Each of these sums folds the
values the measure was built with and relabels only the dominant level
of its result, so a measure written by ``shift_levels`` or
``align_levels`` (an O(levels) write, as in ``standardize``) reads as
fast as the one it came from.
"""

from __future__ import annotations

from .errors import CapabilityError, DomainError, InfiniteMassError
from .integrate import SimpleFunction, integrate_lvalued, integrate_real
from .kernel import kernel_of
from .measure import LMeasure, align_levels, shift_levels
from .ops import divide
from .values import ZERO, Pair, Scalar, Value, is_zero, level_vector, stack_levels, zero
from .xreal import ONE as XR_ONE
from .xreal import XReal


def _require_prob_desc(d) -> int:
    n = kernel_of(d).prob_depth
    if n is None:
        raise CapabilityError("probability needs integer levels over finite rationals")
    if n > 3:
        raise CapabilityError("probability levels deeper than 3 are not supported")
    return n


class PMeasure:
    """A validated probability scene."""

    def __init__(self, base: LMeasure, total_depth):
        self.base = base
        self.total_depth = total_depth

    @property
    def desc(self):
        return self.base.desc

    def value(self, E) -> Value:
        return self.base.value(E)


def level_masses(m: LMeasure) -> dict:
    """Total residue mass per attained level (vector)."""
    n = _require_prob_desc(m.desc)
    masses = {}
    for v in m.atom_values.values():
        if v is ZERO:
            continue
        vec, s = level_vector(v, n)
        key = vec[0] if n == 1 else vec
        masses[key] = masses.get(key, XReal(0)) + s
    return masses


def validate_probability(m: LMeasure) -> dict:
    """Check the probability conditions; returns a report, never raises for mass failures."""
    n = _require_prob_desc(m.desc)
    masses = level_masses(m)
    report = {
        "depth_levels": n,
        "level_masses": {str(k): str(v) for k, v in sorted(masses.items(), reverse=True)},
        "empty_event_zero": is_zero(m.desc, m.value(())),
        "ok": True,
        "failures": [],
    }
    if not masses:
        report["failures"].append("the measure is identically zero")
    elif n == 1:
        for lev, mass in masses.items():
            if mass != XR_ONE:
                report["failures"].append(f"level {lev} has mass {mass}, expected 1")
    else:
        for vec, mass in masses.items():
            if any(c > 0 for c in vec):
                report["failures"].append(f"level vector {vec} has a positive component")
            if mass > XR_ONE:
                report["failures"].append(f"level vector {vec} has mass {mass} > 1")
    report["ok"] = not report["failures"]
    return report


def _require_valid(m: LMeasure) -> int:
    report = validate_probability(m)
    if not report["ok"]:
        raise DomainError("not a probability measure: " + "; ".join(report["failures"]))
    return report["depth_levels"]


def standardize(m: LMeasure) -> PMeasure:
    """Shift the top attained level to zero and close interior gaps."""
    n = _require_valid(m)
    if n == 1:
        shifted = shift_levels(m, -m.attained_levels()[-1])  # _require_valid refuses an all-zero measure
        aligned = align_levels(shifted)
        d = -aligned.attained_levels()[0]
        return PMeasure(aligned, d)
    # nested levels: shift so the componentwise maximum becomes the zero vector
    vecs = [
        level_vector(v, n)[0] for v in m.atom_values.values() if v is not ZERO
    ]
    kappa = tuple(-max(vec[i] for vec in vecs) for i in range(n))
    unit = stack_levels(kappa, XR_ONE)
    atom_values = {a: kernel_of(m.desc).mul(unit, v) for a, v in m.atom_values.items()}
    out = LMeasure._built(m.desc, m.space, atom_values)
    return PMeasure(out, -min(level_vector(v, n)[0][0] for v in out.atom_values.values() if v is not ZERO))


def depth(m, E) -> int:
    """Depth of an event under a standard single-level-stack measure."""
    pm = m if isinstance(m, PMeasure) else standardize(m)
    if kernel_of(pm.desc).prob_depth != 1:
        raise CapabilityError("depth is defined for single-stack probability measures")
    v = pm.value(E)
    if v is ZERO:
        raise DomainError("zero-measure events have no depth")
    return -v.level.x


def cond_prob(m, A, B) -> Value:
    """P(A | B) = value(A and B) / value(B), exactly."""
    base = m.base if isinstance(m, PMeasure) else m
    _require_prob_desc(base.desc)
    ev_a = base.space.check_event(A)
    ev_b = base.space.check_event(B)
    vb = base.value(ev_b)
    if is_zero(base.desc, vb):
        raise DomainError("conditioning on a zero-measure event")
    vab = base.value(ev_a & ev_b)
    if is_zero(base.desc, vab):
        return zero(base.desc)
    return divide(base.desc, vab, vb)


def bayes(m, partition, B) -> dict:
    """Posterior table over a partition given the event B.

    Returns conditionals P(B|A_i), priors P(A_i), the total
    P(B) = sum_i P(B|A_i) P(A_i), and posteriors P(A_i|B); posteriors are
    cross-checked against direct conditioning, P(A_i and B) / P(B).

    Each atom is mapped to its cell once; one pass over the atoms groups
    them by cell, in atom order, and each cell's prior and its part inside
    B are one ``Kernel.sum`` each, so a call costs O(atoms + cells) plus
    the fold of P(B), not a scan of the atoms per event.
    """
    base = m.base if isinstance(m, PMeasure) else m
    d = base.desc
    _require_prob_desc(d)
    k = kernel_of(d)
    cells = []
    for name_or_set in partition:
        if isinstance(name_or_set, str):
            cells.append((name_or_set, base.space.event(name_or_set)))
        else:
            cells.append((f"cell{len(cells) + 1}", base.space.check_event(name_or_set)))
    if len({name for name, _ in cells}) != len(cells):
        raise DomainError("partition cell names repeat")
    # the cells before the first one that overlaps an earlier one are disjoint
    seen, disjoint = frozenset(), len(cells)
    for i, (name, ev) in enumerate(cells):
        if seen & ev:
            disjoint = i
            break
        seen |= ev
    cell_of = {a: i for i in range(disjoint) for a in cells[i][1]}
    members = [[] for _ in range(disjoint)]
    for a in base.space.atoms:
        i = cell_of.get(a)
        if i is not None:
            members[i].append(a)
    prior_of = [base._sum(cell) for cell in members]
    for (name, _), prior in zip(cells, prior_of):
        if k.is_zero(prior):
            raise DomainError(f"partition cell {name!r} has zero measure")
    if disjoint < len(cells):
        raise DomainError(f"partition cells overlap at {sorted(seen & cells[disjoint][1])}")
    if seen != frozenset(base.space.atoms):
        raise DomainError("partition does not cover the atom space")
    ev_b = base.space.event(B) if isinstance(B, str) else base.space.check_event(B)
    vb = base.value(ev_b)
    if k.is_zero(vb):
        raise DomainError("conditioning on a zero-measure event")

    joint_of = [base._sum(filter(ev_b.__contains__, cell)) for cell in members]
    conditionals, priors, terms = {}, {}, []
    for (name, _), prior, joint in zip(cells, prior_of, joint_of):
        cond = k.zero if k.is_zero(joint) else divide(d, joint, prior)
        conditionals[name] = cond
        priors[name] = prior
        terms.append(k.mul(cond, prior))
    total = k.sum(terms)
    posteriors = {}
    for (name, _), term, joint in zip(cells, terms, joint_of):
        posteriors[name] = k.zero if k.is_zero(term) else divide(d, term, total)
        direct = k.zero if k.is_zero(joint) else divide(d, joint, vb)
        if posteriors[name] != direct:
            raise AssertionError(f"posterior for {name!r} disagrees with direct conditioning")
    return {
        "conditionals": conditionals,
        "priors": priors,
        "total": total,
        "posteriors": posteriors,
    }


def normalize_from_density(mu: LMeasure, f: SimpleFunction) -> PMeasure:
    """Integrate a density against a scene, then renormalize each level to mass one."""
    if kernel_of(mu.desc).prob_depth != 1:
        raise CapabilityError("densities are supported over single-stack probability scenes")
    atom_values = {}
    for a in mu.space.atoms:
        if f.kind == "real":
            v = integrate_real(mu, f, (a,))
        elif f.kind == "lvalued":
            v = integrate_lvalued(mu, f, (a,))
        else:
            raise CapabilityError("signed densities do not define probability measures")
        if v is not ZERO and v.residue.x.is_inf:
            raise InfiniteMassError("density integral has an infinite residue")
        atom_values[a] = v
    totals = level_masses(LMeasure._built(mu.desc, mu.space, atom_values))
    normalized = {}
    for a, v in atom_values.items():
        if v is ZERO:
            normalized[a] = ZERO
        else:
            normalized[a] = Pair(v.level, Scalar(v.residue.x / totals[v.level.x]))
    out = LMeasure(mu.desc, mu.space, normalized)
    return standardize(out)
