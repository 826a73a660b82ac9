"""Depth-valued probability on finite scenes.

A probability measure here is an ``LMeasure`` over the semifield of
pairs (integer level, finite positive rational) whose attained levels
each carry total mass one; ``standardize`` returns one in standard form.
Events whose classical probability vanishes keep a nonzero value at a
negative level; ``depth`` is minus that level on the standard measure.
Division makes conditional probability and Bayes inference exact.

Nested variants (levels that are themselves leveled, up to three deep)
support validation, conditioning and Bayes; standardization for them is
shift-only, because closing lexicographic gaps is not meaningful on a
finite scene.

Cost, for N atoms: ``cond_prob`` evaluates two events, one scan of the
atoms each; ``bayes`` sums each cell and its part inside B as sets.
``level_masses`` (and so ``validate_probability``) groups the residues by
attained level (vector) in one scan and sums each group once, in the
innermost residue kernel's ``sum``: no gcd per atom.
Each of these sums folds the values the measure was built with and
relabels only the dominant level of its result, so a measure written by
``shift_levels`` or ``align_levels`` (an O(levels) write, as in
``standardize``) reads as fast as the one it came from.
"""

from __future__ import annotations

from .errors import CapabilityError, DomainError, InfiniteMassError
from .kernel import kernel_of
from .measure import LMeasure, align_levels, shift_levels
from .ops import divide
from .values import ZERO, Pair, Scalar, Value, is_zero, level_vector, stack_levels
from .xreal import ONE as XR_ONE


def _require_prob_desc(d) -> int:
    n = kernel_of(d).prob_depth
    if n is None:
        raise CapabilityError("probability needs integer levels over finite rationals")
    if n > 3:
        raise CapabilityError("probability levels deeper than 3 are not supported")
    return n


def level_masses(m: LMeasure) -> dict:
    """Total residue mass per attained level (vector), in the order the atoms first attain them."""
    n = _require_prob_desc(m.desc)
    k, groups = kernel_of(m.desc), {}
    for v in m.atom_values.values():
        if v is not ZERO:
            key = v.level.x
            if n > 1:  # nested levels: the key is the level vector, and v its innermost pair
                key = level_vector(v, n)[0]
                for _ in range(1, n):
                    v = v.residue
            groups.setdefault(key, []).append(v.residue)
    for _ in range(n):
        k = k.parts[1]  # the innermost residues' kernel: each level's are summed once
    return {key: k.sum(residues).x for key, residues in groups.items()}


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


def standardize(m: LMeasure) -> LMeasure:
    """m in standard form: top attained level 0, interior gaps closed; its depth is minus its least level."""
    n = _require_valid(m)
    if n == 1:
        shifted = shift_levels(m, -m.attained_levels()[-1])  # _require_valid refuses an all-zero measure
        return align_levels(shifted)
    # nested levels: shift so the componentwise maximum becomes the zero vector
    vecs = [
        level_vector(v, n)[0] for v in m.atom_values.values() if v is not ZERO
    ]
    kappa = tuple(-max(vec[i] for vec in vecs) for i in range(n))
    unit = stack_levels(kappa, XR_ONE)
    atom_values = {a: kernel_of(m.desc).mul(unit, v) for a, v in m.atom_values.items()}
    return LMeasure._built(m.desc, m.space, atom_values)


def depth(m: LMeasure, E) -> int:
    """Depth of an event: minus its level under the standard form of a single-level-stack measure m."""
    std = standardize(m)
    if kernel_of(std.desc).prob_depth != 1:
        raise CapabilityError("depth is defined for single-stack probability measures")
    v = std.value(E)
    if v is ZERO:
        raise DomainError("zero-measure events have no depth")
    return -v.level.x


def cond_prob(m, A, B) -> Value:
    """P(A | B) = value(A and B) / value(B), exactly."""
    _require_prob_desc(m.desc)
    ev_a = m.space.check_event(A)
    ev_b = m.space.check_event(B)
    atoms = m.space.atoms  # both events are checked: sum them as value(E) does, not checking again
    vb = m._sum(filter(ev_b.__contains__, atoms))
    k = kernel_of(m.desc)
    if k.is_zero(vb):
        raise DomainError("conditioning on a zero-measure event")
    vab = m._sum(filter((ev_a & ev_b).__contains__, atoms))
    if k.is_zero(vab):
        return k.zero
    return divide(m.desc, vab, vb)


def bayes(m, partition, B) -> dict:
    """Posterior table over a partition given the event B.

    Returns conditionals P(B|A_i) = P(A_i and B) / P(A_i), priors P(A_i),
    the total P(B) and posteriors P(A_i|B) = P(A_i and B) / P(B), each
    computed once; ``laws.prob_laws`` checks that they obey the law of
    total probability and Bayes' rule.

    The cells are checked and summed one at a time, in partition order.
    A cell's prior and its part inside B are sums over sets: a probability
    structure is never ``double(...)``, so no sum depends on the order of
    its terms.  P(B) sums those disjoint parts.
    """
    d = m.desc
    _require_prob_desc(d)
    k = kernel_of(d)
    cells = []
    for name_or_set in partition:
        if isinstance(name_or_set, str):
            cells.append((name_or_set, m.space.event(name_or_set)))
        else:
            cells.append((f"cell{len(cells) + 1}", m.space.check_event(name_or_set)))
    if len({name for name, _ in cells}) != len(cells):
        raise DomainError("partition cell names repeat")
    seen, prior_of = frozenset(), []
    for name, ev in cells:
        if seen & ev:
            raise DomainError(f"partition cells overlap at {sorted(seen & ev)}")
        seen |= ev
        prior_of.append(m._sum(ev))
        if k.is_zero(prior_of[-1]):
            raise DomainError(f"partition cell {name!r} has zero measure")
    if seen != m.space._atom_set:
        raise DomainError("partition does not cover the atom space")
    ev_b = m.space.event(B) if isinstance(B, str) else m.space.check_event(B)
    joint_of = [m._sum(ev & ev_b) for _, ev in cells]
    vb = k.sum(joint_of)
    if k.is_zero(vb):
        raise DomainError("conditioning on a zero-measure event")

    conditionals, priors, posteriors = {}, {}, {}
    for (name, _), prior, joint in zip(cells, prior_of, joint_of):
        null = k.is_zero(joint)
        conditionals[name] = k.zero if null else divide(d, joint, prior)
        priors[name] = prior
        posteriors[name] = k.zero if null else divide(d, joint, vb)
    return {
        "conditionals": conditionals,
        "priors": priors,
        "total": vb,
        "posteriors": posteriors,
    }


def normalize_from_density(mu: LMeasure, f) -> LMeasure:
    """Integrate a density (a ``SimpleFunction``) against a scene, renormalize each level to one, and standardize."""
    from .integrate import integrate_lvalued, integrate_real  # loaded already wherever f was built

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
    # quotients of checked integrals by positive finite masses are well-shaped; standardize validates the result
    normalized = {a: v if v is ZERO else Pair(v.level, Scalar(v.residue.x / totals[v.level.x]))
                  for a, v in atom_values.items()}
    return standardize(LMeasure._built(mu.desc, mu.space, normalized))
