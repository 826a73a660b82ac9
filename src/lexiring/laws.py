"""Seeded random generators and the algebraic law suites.

Everything here is deterministic given (seed, cases); the CLI selfcheck
and the acceptance tests both run these suites.  Integers are drawn
through ``kernel._below``, which gives the values ``randrange`` gives.  Laws call the public
operations through the ``ops`` module object on purpose, so a broken
operation (or a test monkeypatch) is caught by name.

Every law of every suite runs through one case loop, ``_law``: a case
draws its operands from the suite's rng, then checks them, and returns
a failure detail or None.  A case that raises a ``LexiringError`` or an
``AssertionError`` is a failing case too, reported with its case number
under its own law, so the laws around it still run and report.
"""

from __future__ import annotations

import random

from . import ops
from .errors import LexiringError
from .descriptors import parse_struct
from .kernel import ZERO_P, _below, kernel_of, random_xreal
from .values import TOP, ZERO, Pair, Scalar, Signed, Value, one, zero
from .xreal import XReal


# ---------------------------------------------------------------------------
# random elements
# ---------------------------------------------------------------------------

def random_value(rng: random.Random, d) -> Value:
    return kernel_of(d).gen(rng, ZERO_P)


def nonzero_value(rng, d) -> Value:
    return kernel_of(d).nonzero(rng)


# ---------------------------------------------------------------------------
# law results
# ---------------------------------------------------------------------------

class LawResult:
    __slots__ = ("suite", "law", "cases", "ok", "detail")

    def __init__(self, suite, law, cases, ok, detail=""):
        self.suite = suite
        self.law = law
        self.cases = cases
        self.ok = ok
        self.detail = detail

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        msg = f"{status} {self.suite}: {self.law} (cases={self.cases})"
        if self.detail:
            msg += f" -- {self.detail}"
        return msg

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "law": self.law,
            "cases": self.cases,
            "status": "pass" if self.ok else "fail",
            "detail": self.detail,
        }


def _law(suite, law, cases, case) -> LawResult:
    """Run case() for cases 1..cases; the first that returns a detail or raises fails the law."""
    for i in range(1, cases + 1):
        try:
            detail = case()
        except (LexiringError, AssertionError) as exc:
            detail = f"raised {type(exc).__name__}: {exc}"
        if detail:
            return LawResult(suite, law, i, False, detail)
    return LawResult(suite, law, cases, True)


def _triple_laws(suite, cases, triple, checks):
    """One law per (law, check) in turn; each case draws triple(), then checks it."""
    # _law runs each lambda to completion before the loop rebinds check
    return [_law(suite, law, cases, lambda: check(*triple())) for law, check in checks]


# ---------------------------------------------------------------------------
# scalar laws
# ---------------------------------------------------------------------------

def xreal_laws(seed: int, cases: int):
    rng = random.Random(seed)

    def triple():
        return random_xreal(rng), random_xreal(rng), random_xreal(rng)

    checks = [
        ("add_commutative", lambda a, b, c: None if a + b == b + a else f"{a}+{b}"),
        ("add_associative", lambda a, b, c: None if (a + b) + c == a + (b + c) else f"{a},{b},{c}"),
        ("mul_commutative", lambda a, b, c: None if a * b == b * a else f"{a}*{b}"),
        ("mul_associative", lambda a, b, c: None if (a * b) * c == a * (b * c) else f"{a},{b},{c}"),
        ("distributive", lambda a, b, c: None if a * (b + c) == a * b + a * c else f"{a},{b},{c}"),
        ("order_compatible", lambda a, b, c: None
         if (not a <= b) or (a + c <= b + c and a * c <= b * c) else f"{a},{b},{c}"),
    ]
    return _triple_laws("xreal", cases, triple, checks)


# ---------------------------------------------------------------------------
# structure laws
# ---------------------------------------------------------------------------

def structure_laws(struct_text: str, seed: int, cases: int):
    """The semiring law suite for one descriptor."""
    d = parse_struct(struct_text) if isinstance(struct_text, str) else struct_text
    name = struct_text if isinstance(struct_text, str) else repr(d)
    rng = random.Random(seed)
    zd = zero(d)
    od = one(d)
    is_zero = kernel_of(d).is_zero  # drawn operands are well-shaped: test them unchecked

    def triple():
        return random_value(rng, d), random_value(rng, d), random_value(rng, d)

    def eq(x, y):
        return ops.cmp(d, x, y) == 0 and x == y

    def level_mul(x, y, z):
        if is_zero(x) or is_zero(y) or x is TOP or y is TOP:
            return None
        got = ops.level(d, ops.mul(d, x, y))
        want = ops.add(d.a, ops.level(d, x), ops.level(d, y))
        return None if got == want else f"{x!r},{y!r}"

    def level_add(x, y, z):
        if is_zero(x) or is_zero(y) or x is TOP or y is TOP:
            return None
        s = ops.add(d, x, y)
        lx, ly = ops.level(d, x), ops.level(d, y)
        want = lx if ops.cmp(d.a, lx, ly) >= 0 else ly
        return None if ops.level(d, s) == want else f"{x!r},{y!r}"

    def inverse(x, y, z):
        if is_zero(x):
            return None
        return None if eq(ops.mul(d, x, ops.inv(d, x)), od) else f"{x!r}"

    def bar_products(x, y, z):
        if not eq(ops.mul(d, zd, TOP), zd):
            return "0*top"
        if is_zero(x):
            return None
        return None if eq(ops.mul(d, TOP, x), TOP) else f"top*{x!r}"

    checks = [
        ("add_commutative", lambda x, y, z: None if eq(ops.add(d, x, y), ops.add(d, y, x)) else f"{x!r},{y!r}"),
        ("add_associative", lambda x, y, z: None
         if eq(ops.add(d, ops.add(d, x, y), z), ops.add(d, x, ops.add(d, y, z))) else f"{x!r},{y!r},{z!r}"),
        ("add_identity", lambda x, y, z: None
         if eq(ops.add(d, x, zd), x) and eq(ops.add(d, zd, x), x) else f"{x!r}"),
        ("add_monotone", lambda x, y, z: None if ops.cmp(d, ops.add(d, x, y), y) >= 0 else f"{x!r},{y!r}"),
        ("mul_commutative", lambda x, y, z: None if eq(ops.mul(d, x, y), ops.mul(d, y, x)) else f"{x!r},{y!r}"),
        ("mul_associative", lambda x, y, z: None
         if eq(ops.mul(d, ops.mul(d, x, y), z), ops.mul(d, x, ops.mul(d, y, z))) else f"{x!r},{y!r},{z!r}"),
        ("distributive", lambda x, y, z: None
         if eq(ops.mul(d, x, ops.add(d, y, z)), ops.add(d, ops.mul(d, x, y), ops.mul(d, x, z)))
         else f"{x!r},{y!r},{z!r}"),
        ("mul_identity", lambda x, y, z: None if eq(ops.mul(d, x, od), x) else f"{x!r}"),
        ("zero_absorbs", lambda x, y, z: None if eq(ops.mul(d, x, zd), zd) else f"{x!r}"),
        ("level_of_product", level_mul),
        ("level_of_sum", level_add),
    ]
    if kernel_of(d).semifield:
        checks.append(("multiplicative_inverse", inverse))
    if kernel_of(d).bar:
        checks.append(("top_products", bar_products))
    return _triple_laws(name, cases, triple, checks)


LAW_STRUCTURES = ("S", "O", "P", "Obar", "Sn(2)", "On(2)", "Pn(2)")


# ---------------------------------------------------------------------------
# random scenes, trees, weight systems
# ---------------------------------------------------------------------------

def random_measure(rng):
    """A measure over O on 1 to 6 atoms; each atom is 0 with chance 0.2, else a finite value."""
    from .measure import AtomSpace, LMeasure

    n = 1 + _below(rng, 6)
    atoms = [f"a{i}" for i in range(n)]
    values = {}
    for a in atoms:
        if rng.random() < 0.2:
            values[a] = ZERO
        else:
            lev = _below(rng, 7) - 3
            values[a] = Pair(Scalar(lev), Scalar(XReal(1 + _below(rng, 11), 1 + _below(rng, 6))))
    return LMeasure(parse_struct("O"), AtomSpace(atoms), values)


def random_prob_scene(rng):
    """A valid probability scene over P: levels 0 and -1, three atoms each, whose residues sum to one."""
    from .measure import AtomSpace, LMeasure

    values = {}
    for lev in (0, -1):
        cuts = sorted(1 + _below(rng, 23) for _ in range(2))
        bounds = [0] + cuts + [24]
        for i in range(3):
            num = bounds[i + 1] - bounds[i]
            name = f"L{-lev}_{i}"
            if num == 0:
                values[name] = ZERO
            else:
                values[name] = Pair(Scalar(lev), Scalar(XReal(num, 24)))
    return LMeasure(parse_struct("P"), AtomSpace(list(values)), values)


def random_tree_edges(rng, n):
    """Nodes and (a, b, value) edges of a random tree over O."""
    nodes = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        parent = nodes[_below(rng, i)]
        v = Pair(
            Scalar(_below(rng, 5) - 2),
            Scalar(XReal(1 + _below(rng, 8), 1 + _below(rng, 4))),
        )
        edges.append((parent, nodes[i], v))
    return nodes, edges


def random_weight_system(rng):
    """A weight system over P on a fixed four-sector graph with two switches, and a cocycle on two of its ends."""
    from .weights import BranchedGraph, Cocycle, WeightSystem

    d = parse_struct("P")
    g = BranchedGraph(
        ["a", "b", "c", "d"],
        [
            ([("a", "r")], [("b", "l"), ("c", "l")]),
            ([("b", "r"), ("d", "l")], [("c", "r")]),
        ],
    )
    w = WeightSystem(d, {s: (ZERO if rng.random() < 0.25 else nonzero_value(rng, d)) for s in g.sectors})
    crossings = {}
    for end in (("b", "l"), ("c", "r")):
        if rng.random() < 0.7:
            crossings[end] = nonzero_value(rng, d)
    return g, w, Cocycle(d, crossings)


# ---------------------------------------------------------------------------
# property suites beyond the pure algebra
# ---------------------------------------------------------------------------

def measure_laws(seed: int, cases: int):
    from .measure import align_levels, is_proximal, recover_from_slices, shift_levels, slice_at

    rng = random.Random(seed)
    n = max(1, cases)

    def roundtrip():
        m = random_measure(rng)
        slices = {
            k: {a: slice_at(m, k, (a,)) for a in m.space.atoms}
            for k in range(-4, 5)
        }
        got = recover_from_slices(m.desc, m.space, slices)
        return None if got.atom_values == m.atom_values else f"roundtrip failed on {m.atom_values!r}"

    def additivity():
        m = random_measure(rng)
        atoms = m.space.atoms
        marks = [_below(rng, 3) for _ in atoms]
        e = [a for a, mk in zip(atoms, marks) if mk == 0]
        f = [a for a, mk in zip(atoms, marks) if mk == 1]
        return None if m.value(e + f) == ops.add(m.desc, m.value(e), m.value(f)) else "additivity failed"

    def align_and_shift():
        m = random_measure(rng)
        aligned = align_levels(m)
        if not is_proximal(aligned):
            return "align output not proximal"
        if align_levels(aligned).atom_values != aligned.atom_values:
            return "align not idempotent"
        k = _below(rng, 7) - 3
        if shift_levels(shift_levels(m, k), -k).atom_values != m.atom_values:
            return "shift roundtrip failed"
        return None

    return [_law("measure", "slice_recover_roundtrip", n, roundtrip),
            _law("measure", "finite_additivity", n, additivity),
            _law("measure", "align_and_shift", n, align_and_shift)]


def integrate_laws(seed: int, cases: int):
    from .integrate import SimpleFunction, integrate_lvalued, integrate_real, integrate_signed
    from .measure import AtomSpace, LMeasure
    from .xreal import ZERO as XR_ZERO

    rng = random.Random(seed)
    d = parse_struct("O")
    dd = parse_struct("double(O)")
    n = max(1, cases)

    def single_level_oracle():
        atoms = [f"a{j}" for j in range(1 + _below(rng, 5))]
        space = AtomSpace(atoms)
        k0 = _below(rng, 7) - 3
        residues = {a: XReal(1 + _below(rng, 8), 1 + _below(rng, 4)) for a in atoms}
        m = LMeasure(d, space, {a: Pair(Scalar(k0), Scalar(residues[a])) for a in atoms})
        fvals = {a: XReal(_below(rng, 5), 1 + _below(rng, 3)) for a in atoms}
        got = integrate_real(m, SimpleFunction.real(fvals), atoms)
        expected = XR_ZERO
        for a in atoms:
            expected = expected + fvals[a] * residues[a]
        want = ZERO if expected.is_zero else Pair(Scalar(k0), Scalar(expected))
        return None if got == want else f"oracle mismatch at level {k0}"

    def additivity():
        m = random_measure(rng)
        atoms = m.space.atoms
        g = SimpleFunction.lvalued(
            m.desc,
            {a: (ZERO if rng.random() < 0.3 else nonzero_value(rng, m.desc)) for a in atoms},
        )
        marks = [_below(rng, 3) for _ in atoms]
        e = [a for a, mk in zip(atoms, marks) if mk == 0]
        f = [a for a, mk in zip(atoms, marks) if mk == 1]
        lhs = integrate_lvalued(m, g, e + f)
        rhs = ops.add(m.desc, integrate_lvalued(m, g, e), integrate_lvalued(m, g, f))
        return None if lhs == rhs else "integral not additive over disjoint events"

    def signed_negation():
        m = random_measure(rng)
        vals = {}
        for a in m.space.atoms:
            if rng.random() < 0.3:
                vals[a] = ZERO
            else:
                mag = Pair(
                    Scalar(_below(rng, 5) - 2),
                    Scalar(XReal(1 + _below(rng, 6), 1 + _below(rng, 3))),
                )
                vals[a] = Signed(rng.choice((1, -1)), mag)
        f = SimpleFunction.signed(dd, vals)
        fneg = SimpleFunction.signed(dd, {a: ops.neg(dd, v) for a, v in vals.items()})
        if integrate_signed(m, fneg, m.space.atoms) != ops.neg(dd, integrate_signed(m, f, m.space.atoms)):
            return "negation symmetry failed"
        return None

    return [_law("integrate", "single_level_oracle", n, single_level_oracle),
            _law("integrate", "additivity", n, additivity),
            _law("integrate", "signed_negation", n, signed_negation)]


def prob_laws(seed: int, cases: int):
    from .prob import bayes, cond_prob, validate_probability
    from .measure import shift_levels

    rng = random.Random(seed)

    def total_probability_and_shift():
        m = random_prob_scene(rng)
        if not validate_probability(m)["ok"]:
            return "generator produced an invalid scene"
        kern = kernel_of(m.desc)
        atoms = [a for a in m.space.atoms if not kern.is_zero(m.atom_values[a])]
        if len(atoms) < 2:
            return None
        rng.shuffle(atoms)
        cut = 1 + _below(rng, len(atoms) - 1)
        cells = [atoms[:cut], atoms[cut:]]
        zeros = [a for a in m.space.atoms if kern.is_zero(m.atom_values[a])]
        cells[0] = cells[0] + zeros
        b_ev = [a for a in m.space.atoms if rng.random() < 0.6]
        if kern.is_zero(m.value(b_ev)):
            b_ev = b_ev + [atoms[0]]
        out = bayes(m, cells, b_ev)
        terms = {name: kern.mul(cond, out["priors"][name]) for name, cond in out["conditionals"].items()}
        if not out["total"] == m.value(b_ev) == kern.sum(list(terms.values())):  # P(B) = sum_i P(B|A_i) P(A_i)
            return "total probability law failed"
        for name, term in terms.items():  # P(A_i|B) = P(B|A_i) P(A_i) / P(B)
            if out["posteriors"][name] != (kern.zero if kern.is_zero(term) else ops.divide(m.desc, term, out["total"])):
                return f"Bayes' rule failed for {name!r}"
        k = _below(rng, 5) - 2
        if cond_prob(shift_levels(m, k), atoms[:1], b_ev) != cond_prob(m, atoms[:1], b_ev):
            return "conditional probability not shift invariant"
        return None

    return [_law("prob", "total_probability_and_shift", max(1, cases), total_probability_and_shift)]


def tree_laws(seed: int, cases: int):
    from .tree import LTree, bfs_paths, distance, meet, segment, verify_metric

    rng = random.Random(seed)
    d = parse_struct("O")

    def metric_and_meet():
        nodes, edges = random_tree_edges(rng, 2 + _below(rng, 11))
        t = LTree(d, nodes, edges)
        # the oracle walks the generated edge list, not the tree's rooting
        adj = {u: {} for u in nodes}
        for a, b, v in edges:
            adj[a][b] = adj[b][a] = v
        for _ in range(10):
            x, y, z = (rng.choice(nodes) for _ in range(3))
            paths = bfs_paths(adj, x)
            path, on_xz, acc = paths[y], set(paths[z]), zero(d)
            for a, b in zip(path, path[1:]):
                acc = ops.add(d, acc, adj[a][b])
            if segment(t, x, y) != path:
                return "segment disagrees with the BFS path"
            if distance(t, x, y) != acc:
                return "distance disagrees with the fold along the BFS path"
            if [u for u in path if u in on_xz] != paths[meet(t, x, y, z)]:
                return "meet disagrees with path intersection"
        return None if verify_metric(t)["ok"] else "metric axioms failed"

    return [_law("tree", "metric_and_meet", max(1, cases), metric_and_meet)]


def weights_laws(seed: int, cases: int):
    from .weights import apply_deck, check_branch_equations, gauge_move

    rng = random.Random(seed)

    def deck_and_gauge_invariance():
        g, w, c = random_weight_system(rng)
        before = check_branch_equations(g, w, c)
        lam = nonzero_value(rng, w.desc)
        if check_branch_equations(g, apply_deck(w, lam), c)["ok"] != before["ok"]:
            return "deck scaling changed the report"
        sector = rng.choice(g.sectors)
        w2, c2 = gauge_move(g, w, c, sector, nonzero_value(rng, w.desc))
        if check_branch_equations(g, w2, c2) != before:
            return "gauge move changed the report"
        return None

    return [_law("weights", "deck_and_gauge_invariance", max(1, cases), deck_and_gauge_invariance)]


def run_selfcheck(seed: int, cases: int):
    """Every property suite, deterministically; returns (all_ok, results)."""
    results = xreal_laws(seed, cases)
    for idx, s in enumerate(LAW_STRUCTURES):
        results += structure_laws(s, seed + idx, cases)
    results += assoc_iso_laws(seed + 100, cases)
    light = max(1, cases // 10)
    results += measure_laws(seed + 200, light)
    results += integrate_laws(seed + 300, light)
    results += prob_laws(seed + 400, light)
    results += tree_laws(seed + 500, max(1, cases // 50))
    results += weights_laws(seed + 600, light)
    return all(r.ok for r in results), results


def assoc_iso_laws(seed: int, cases: int):
    """Order/addition preservation of the s-insertion regrouping map, on three random nestings of bases."""
    rng = random.Random(seed)
    results = []
    bases = ["N0", "Rc", "Ro", "Nbar0"]
    for _ in range(3):
        a, b, c = (rng.choice(bases) for _ in range(3))
        text = f"{a} \\/ ({b} \\/ {c})"
        d = parse_struct(text)
        tgt = ops.regroup_desc(d)

        def isomorphism():
            x = random_value(rng, d)
            y = random_value(rng, d)
            fx, fy = ops.assoc_iso(d, x), ops.assoc_iso(d, y)
            if ops.assoc_iso(d, ops.add(d, x, y)) != ops.add(tgt, fx, fy):
                return f"addition not preserved at {x!r},{y!r}"
            if ops.cmp(d, x, y) != ops.cmp(tgt, fx, fy):
                return f"order not preserved at {x!r},{y!r}"
            if ops.assoc_iso_inv(tgt, fx) != x:
                return f"not injective at {x!r}"
            return None

        results.append(_law(f"assoc_iso[{text}]", "isomorphism", cases, isomorphism))
    return results
