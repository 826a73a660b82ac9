"""Seeded random generators and the algebraic law suites.

Everything here is deterministic given (seed, cases); the CLI selfcheck
and the acceptance tests both run these suites.  Laws call the public
operations through the ``ops`` module object on purpose, so a broken
operation (or a test monkeypatch) is caught by name.
"""

from __future__ import annotations

import random

from . import ops
from .errors import LexiringError
from .descriptors import (
    Base,
    BarInsert,
    BarSInsert,
    DoubleOf,
    Insert,
    MixedInsert,
    SInsert,
    StructDesc,
    is_semifield,
    parse_struct,
)
from .values import TOP, ZERO, Pair, Scalar, Signed, Value, is_zero, one, zero
from .xreal import INF, XReal


# ---------------------------------------------------------------------------
# random elements
# ---------------------------------------------------------------------------

def random_xreal(rng, allow_inf=True, allow_zero=True):
    r = rng.random()
    if allow_inf and r < 0.10:
        return INF
    if allow_zero and r < 0.18:
        return XReal(0)
    return XReal(rng.randrange(1, 13), rng.randrange(1, 9))


def random_value(rng: random.Random, d: StructDesc, zero_p: float = 0.12) -> Value:
    if isinstance(d, Base):
        if d.name == "N0":
            return Scalar(rng.randrange(0, 8))
        if d.name == "Z":
            return Scalar(rng.randrange(-7, 8))
        if d.name == "Rc":
            return Scalar(random_xreal(rng))
        if d.name == "Ro":
            return Scalar(random_xreal(rng, allow_inf=False))
        return Scalar(INF if rng.random() < 0.1 else XReal(rng.randrange(0, 9)))
    if isinstance(d, (SInsert, BarSInsert)):
        if isinstance(d, BarSInsert) and rng.random() < 0.05:
            return TOP
        return Pair(random_value(rng, d.a), random_value(rng, d.b))
    if isinstance(d, (Insert, BarInsert)):
        if rng.random() < zero_p:
            return ZERO
        if isinstance(d, BarInsert) and rng.random() < 0.05:
            return TOP
        return Pair(random_value(rng, d.a), nonzero_value(rng, d.b))
    if isinstance(d, MixedInsert):
        if rng.random() < zero_p:
            return ZERO
        lo, hi = d.lo, d.hi
        if lo is None:
            lo = 0 if d.base.name == "N0" else (hi - 4 if hi is not None else -3)
        if hi is None:
            hi = lo + 4
        lev = rng.randrange(lo, hi + 1)
        sub = d.residue_desc(lev)
        return Pair(Scalar(lev), nonzero_value(rng, sub))
    if isinstance(d, DoubleOf):
        if rng.random() < zero_p:
            return ZERO
        return Signed(rng.choice((1, -1)), nonzero_value(rng, d.inner))
    raise AssertionError(f"no generator for {d!r}")


def nonzero_value(rng, d, tries: int = 64) -> Value:
    for _ in range(tries):
        v = random_value(rng, d, zero_p=0.0)
        if not is_zero(d, v):
            return v
    raise AssertionError(f"could not generate a nonzero value of {d!r}")


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


# ---------------------------------------------------------------------------
# scalar laws
# ---------------------------------------------------------------------------

def xreal_laws(seed: int, cases: int):
    rng = random.Random(seed)
    results = []

    def run(law, check):
        for i in range(cases):
            a, b, c = (random_xreal(rng) for _ in range(3))
            err = check(a, b, c)
            if err:
                results.append(LawResult("xreal", law, i + 1, False, err))
                return
        results.append(LawResult("xreal", law, cases, True))

    run("add_commutative", lambda a, b, c: None if a + b == b + a else f"{a}+{b}")
    run("add_associative", lambda a, b, c: None if (a + b) + c == a + (b + c) else f"{a},{b},{c}")
    run("mul_commutative", lambda a, b, c: None if a * b == b * a else f"{a}*{b}")
    run("mul_associative", lambda a, b, c: None if (a * b) * c == a * (b * c) else f"{a},{b},{c}")
    run("distributive", lambda a, b, c: None if a * (b + c) == a * b + a * c else f"{a},{b},{c}")
    run(
        "order_compatible",
        lambda a, b, c: None
        if (not a <= b) or (a + c <= b + c and a * c <= b * c)
        else f"{a},{b},{c}",
    )
    return results


# ---------------------------------------------------------------------------
# structure laws
# ---------------------------------------------------------------------------

def _level_of(d, v):
    return ops.level(d, v)


def structure_laws(struct_text: str, seed: int, cases: int):
    """The semiring law suite for one descriptor."""
    d = parse_struct(struct_text) if isinstance(struct_text, str) else struct_text
    name = struct_text if isinstance(struct_text, str) else repr(d)
    rng = random.Random(seed)
    results = []
    zd = zero(d)
    od = one(d)

    def triple():
        return random_value(rng, d), random_value(rng, d), random_value(rng, d)

    def run(law, check):
        for i in range(cases):
            args = triple()
            try:
                err = check(*args)
            except (LexiringError, AssertionError) as exc:
                err = f"raised {type(exc).__name__}: {exc}"
            if err:
                results.append(LawResult(name, law, i + 1, False, err))
                return
        results.append(LawResult(name, law, cases, True))

    def eq(x, y):
        return ops.cmp(d, x, y) == 0 and x == y

    run("add_commutative", lambda x, y, z: None if eq(ops.add(d, x, y), ops.add(d, y, x)) else f"{x!r},{y!r}")
    run(
        "add_associative",
        lambda x, y, z: None
        if eq(ops.add(d, ops.add(d, x, y), z), ops.add(d, x, ops.add(d, y, z)))
        else f"{x!r},{y!r},{z!r}",
    )
    run("add_identity", lambda x, y, z: None if eq(ops.add(d, x, zd), x) and eq(ops.add(d, zd, x), x) else f"{x!r}")
    run(
        "add_monotone",
        lambda x, y, z: None if ops.cmp(d, ops.add(d, x, y), y) >= 0 else f"{x!r},{y!r}",
    )
    run(
        "mul_commutative",
        lambda x, y, z: None if eq(ops.mul(d, x, y), ops.mul(d, y, x)) else f"{x!r},{y!r}",
    )
    run(
        "mul_associative",
        lambda x, y, z: None
        if eq(ops.mul(d, ops.mul(d, x, y), z), ops.mul(d, x, ops.mul(d, y, z)))
        else f"{x!r},{y!r},{z!r}",
    )
    run(
        "distributive",
        lambda x, y, z: None
        if eq(ops.mul(d, x, ops.add(d, y, z)), ops.add(d, ops.mul(d, x, y), ops.mul(d, x, z)))
        else f"{x!r},{y!r},{z!r}",
    )
    run("mul_identity", lambda x, y, z: None if eq(ops.mul(d, x, od), x) else f"{x!r}")
    run("zero_absorbs", lambda x, y, z: None if eq(ops.mul(d, x, zd), zd) else f"{x!r}")

    def level_mul(x, y, z):
        if is_zero(d, x) or is_zero(d, y) or x is TOP or y is TOP:
            return None
        got = _level_of(d, ops.mul(d, x, y))
        want = ops.add(d.a, _level_of(d, x), _level_of(d, y))
        return None if got == want else f"{x!r},{y!r}"

    def level_add(x, y, z):
        if is_zero(d, x) or is_zero(d, y) or x is TOP or y is TOP:
            return None
        s = ops.add(d, x, y)
        lx, ly = _level_of(d, x), _level_of(d, y)
        want = lx if ops.cmp(d.a, lx, ly) >= 0 else ly
        return None if _level_of(d, s) == want else f"{x!r},{y!r}"

    run("level_of_product", level_mul)
    run("level_of_sum", level_add)

    if is_semifield(d):
        def inverse(x, y, z):
            if is_zero(d, x):
                return None
            return None if eq(ops.mul(d, x, ops.inv(d, x)), od) else f"{x!r}"

        run("multiplicative_inverse", inverse)

    if isinstance(d, (BarInsert, BarSInsert)):
        def bar_products(x, y, z):
            if not eq(ops.mul(d, zd, TOP), zd):
                return "0*top"
            if is_zero(d, x):
                return None
            return None if eq(ops.mul(d, TOP, x), TOP) else f"top*{x!r}"

        run("top_products", bar_products)

    return results


LAW_STRUCTURES = ("S", "O", "P", "Obar", "Sn(2)", "On(2)", "Pn(2)")


# ---------------------------------------------------------------------------
# random scenes, trees, weight systems
# ---------------------------------------------------------------------------

def random_measure(rng, struct_text="O", n_atoms=None, finite=True):
    from .measure import AtomSpace, LMeasure

    d = parse_struct(struct_text)
    n = n_atoms or rng.randrange(1, 7)
    atoms = [f"a{i}" for i in range(n)]
    values = {}
    for a in atoms:
        if rng.random() < 0.2:
            values[a] = ZERO
        else:
            lev = rng.randrange(-3, 4)
            res = XReal(rng.randrange(1, 12), rng.randrange(1, 7))
            if not finite and rng.random() < 0.1:
                res = INF
            values[a] = Pair(Scalar(lev), Scalar(res))
    return LMeasure(d, AtomSpace(atoms), values)


def random_prob_scene(rng, n_levels=2, atoms_per_level=3):
    """A valid probability scene: each level's residues sum to one."""
    from .measure import AtomSpace, LMeasure

    d = parse_struct("P")
    values = {}
    for lev in range(0, -n_levels, -1):
        cuts = sorted(rng.randrange(1, 24) for _ in range(atoms_per_level - 1))
        bounds = [0] + cuts + [24]
        for i in range(atoms_per_level):
            num = bounds[i + 1] - bounds[i]
            name = f"L{-lev}_{i}"
            if num == 0:
                values[name] = ZERO
            else:
                values[name] = Pair(Scalar(lev), Scalar(XReal(num, 24)))
    return LMeasure(d, AtomSpace(list(values)), values)


def random_tree_edges(rng, n):
    """Nodes and (a, b, value) edges of a random tree over O."""
    nodes = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        parent = nodes[rng.randrange(i)]
        v = Pair(
            Scalar(rng.randrange(-2, 3)),
            Scalar(XReal(rng.randrange(1, 9), rng.randrange(1, 5))),
        )
        edges.append((parent, nodes[i], v))
    return nodes, edges


def random_weight_system(rng, struct_text="P"):
    from .weights import BranchedGraph, Cocycle, WeightSystem

    d = parse_struct(struct_text)
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
    results = []

    n = max(1, cases)
    ok, detail, i = True, "", 0
    for i in range(1, n + 1):
        m = random_measure(rng)
        slices = {
            k: {a: slice_at(m, k, (a,)) for a in m.space.atoms}
            for k in range(-4, 5)
        }
        got = recover_from_slices(m.desc, m.space, slices)
        if got.atom_values != m.atom_values:
            ok, detail = False, f"roundtrip failed on {m.atom_values!r}"
            break
    results.append(LawResult("measure", "slice_recover_roundtrip", i, ok, detail))

    ok, detail, i = True, "", 0
    for i in range(1, n + 1):
        m = random_measure(rng)
        atoms = m.space.atoms
        marks = [rng.randrange(3) for _ in atoms]
        e = [a for a, mk in zip(atoms, marks) if mk == 0]
        f = [a for a, mk in zip(atoms, marks) if mk == 1]
        if m.value(e + f) != ops.add(m.desc, m.value(e), m.value(f)):
            ok, detail = False, "additivity failed"
            break
    results.append(LawResult("measure", "finite_additivity", i, ok, detail))

    ok, detail, i = True, "", 0
    for i in range(1, n + 1):
        m = random_measure(rng)
        aligned = align_levels(m)
        if not is_proximal(aligned):
            ok, detail = False, "align output not proximal"
            break
        if align_levels(aligned).atom_values != aligned.atom_values:
            ok, detail = False, "align not idempotent"
            break
        k = rng.randrange(-3, 4)
        if shift_levels(shift_levels(m, k), -k).atom_values != m.atom_values:
            ok, detail = False, "shift roundtrip failed"
            break
    results.append(LawResult("measure", "align_and_shift", i, ok, detail))
    return results


def integrate_laws(seed: int, cases: int):
    from .integrate import SimpleFunction, integrate_lvalued, integrate_real, integrate_signed
    from .measure import AtomSpace, LMeasure
    from .xreal import ZERO as XR_ZERO

    rng = random.Random(seed)
    results = []
    d = parse_struct("O")
    dd = parse_struct("double(O)")
    n = max(1, cases)

    ok, detail, i = True, "", 0
    for i in range(1, n + 1):
        atoms = [f"a{j}" for j in range(rng.randrange(1, 6))]
        space = AtomSpace(atoms)
        k0 = rng.randrange(-3, 4)
        residues = {a: XReal(rng.randrange(1, 9), rng.randrange(1, 5)) for a in atoms}
        m = LMeasure(d, space, {a: Pair(Scalar(k0), Scalar(residues[a])) for a in atoms})
        fvals = {a: XReal(rng.randrange(0, 5), rng.randrange(1, 4)) for a in atoms}
        got = integrate_real(m, SimpleFunction.real(fvals), atoms)
        expected = XR_ZERO
        for a in atoms:
            expected = expected + fvals[a] * residues[a]
        want = ZERO if expected.is_zero else Pair(Scalar(k0), Scalar(expected))
        if got != want:
            ok, detail = False, f"oracle mismatch at level {k0}"
            break
    results.append(LawResult("integrate", "single_level_oracle", i, ok, detail))

    ok, detail, i = True, "", 0
    for i in range(1, n + 1):
        m = random_measure(rng)
        atoms = m.space.atoms
        g = SimpleFunction.lvalued(
            m.desc,
            {a: (ZERO if rng.random() < 0.3 else nonzero_value(rng, m.desc)) for a in atoms},
        )
        marks = [rng.randrange(3) for _ in atoms]
        e = [a for a, mk in zip(atoms, marks) if mk == 0]
        f = [a for a, mk in zip(atoms, marks) if mk == 1]
        lhs = integrate_lvalued(m, g, e + f)
        rhs = ops.add(m.desc, integrate_lvalued(m, g, e), integrate_lvalued(m, g, f))
        if lhs != rhs:
            ok, detail = False, "integral not additive over disjoint events"
            break
    results.append(LawResult("integrate", "additivity", i, ok, detail))

    ok, detail, i = True, "", 0
    for i in range(1, n + 1):
        m = random_measure(rng)
        vals = {}
        for a in m.space.atoms:
            if rng.random() < 0.3:
                vals[a] = ZERO
            else:
                mag = Pair(
                    Scalar(rng.randrange(-2, 3)),
                    Scalar(XReal(rng.randrange(1, 7), rng.randrange(1, 4))),
                )
                vals[a] = Signed(rng.choice((1, -1)), mag)
        f = SimpleFunction.signed(dd, vals)
        fneg = SimpleFunction.signed(dd, {a: ops.neg(dd, v) for a, v in vals.items()})
        if integrate_signed(m, fneg, m.space.atoms) != ops.neg(dd, integrate_signed(m, f, m.space.atoms)):
            ok, detail = False, "negation symmetry failed"
            break
    results.append(LawResult("integrate", "signed_negation", i, ok, detail))
    return results


def prob_laws(seed: int, cases: int):
    from .prob import bayes, cond_prob, validate_probability
    from .measure import shift_levels

    rng = random.Random(seed)
    results = []
    n = max(1, cases)

    ok, detail, i = True, "", 0
    for i in range(1, n + 1):
        m = random_prob_scene(rng)
        if not validate_probability(m)["ok"]:
            ok, detail = False, "generator produced an invalid scene"
            break
        atoms = [a for a in m.space.atoms if not is_zero(m.desc, m.atom_values[a])]
        if len(atoms) < 2:
            continue
        rng.shuffle(atoms)
        cut = rng.randrange(1, len(atoms))
        cells = [atoms[:cut], atoms[cut:]]
        zeros = [a for a in m.space.atoms if is_zero(m.desc, m.atom_values[a])]
        cells[0] = cells[0] + zeros
        b_ev = [a for a in m.space.atoms if rng.random() < 0.6]
        if is_zero(m.desc, m.value(b_ev)):
            b_ev = b_ev + [atoms[0]]
        out = bayes(m, cells, b_ev)
        if out["total"] != m.value(b_ev):
            ok, detail = False, "total probability law failed"
            break
        k = rng.randrange(-2, 3)
        if cond_prob(shift_levels(m, k), atoms[:1], b_ev) != cond_prob(m, atoms[:1], b_ev):
            ok, detail = False, "conditional probability not shift invariant"
            break
    results.append(LawResult("prob", "total_probability_and_shift", i, ok, detail))
    return results


def tree_laws(seed: int, cases: int):
    from .tree import LTree, bfs_paths, distance, meet, segment, verify_metric

    rng = random.Random(seed)
    results = []
    n = max(1, cases)
    ok, detail, i = True, "", 0
    d = parse_struct("O")
    for i in range(1, n + 1):
        nodes, edges = random_tree_edges(rng, rng.randrange(2, 13))
        t = LTree(d, nodes, edges)
        if not verify_metric(t)["ok"]:
            ok, detail = False, "metric axioms failed"
            break
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
                ok, detail = False, "segment disagrees with the BFS path"
            elif distance(t, x, y) != acc:
                ok, detail = False, "distance disagrees with the fold along the BFS path"
            elif [u for u in path if u in on_xz] != paths[meet(t, x, y, z)]:
                ok, detail = False, "meet disagrees with path intersection"
            if not ok:
                break
        else:
            continue
        break
    results.append(LawResult("tree", "metric_and_meet", i, ok, detail))
    return results


def weights_laws(seed: int, cases: int):
    from .weights import apply_deck, check_branch_equations, gauge_move

    rng = random.Random(seed)
    results = []
    n = max(1, cases)
    ok, detail, i = True, "", 0
    for i in range(1, n + 1):
        g, w, c = random_weight_system(rng)
        before = check_branch_equations(g, w, c)
        lam = nonzero_value(rng, w.desc)
        if check_branch_equations(g, apply_deck(w, lam), c)["ok"] != before["ok"]:
            ok, detail = False, "deck scaling changed the report"
            break
        sector = rng.choice(g.sectors)
        w2, c2 = gauge_move(g, w, c, sector, nonzero_value(rng, w.desc))
        if check_branch_equations(g, w2, c2) != before:
            ok, detail = False, "gauge move changed the report"
            break
    results.append(LawResult("weights", "deck_and_gauge_invariance", i, ok, detail))
    return results


def run_selfcheck(seed: int, cases: int):
    """Every property suite, deterministically; returns (all_ok, results)."""
    results = []

    def guarded(suite_name, fn, *args):
        try:
            results.extend(fn(*args))
        except (LexiringError, AssertionError) as exc:
            results.append(LawResult(suite_name, "suite_crashed", 0, False, f"{type(exc).__name__}: {exc}"))

    guarded("xreal", xreal_laws, seed, cases)
    for idx, s in enumerate(LAW_STRUCTURES):
        guarded(s, structure_laws, s, seed + idx, cases)
    guarded("assoc_iso", assoc_iso_laws, seed + 100, cases)
    light = max(1, cases // 10)
    guarded("measure", measure_laws, seed + 200, light)
    guarded("integrate", integrate_laws, seed + 300, light)
    guarded("prob", prob_laws, seed + 400, light)
    guarded("tree", tree_laws, seed + 500, max(1, cases // 50))
    guarded("weights", weights_laws, seed + 600, light)
    return all(r.ok for r in results), results


def assoc_iso_laws(seed: int, cases: int, trios: int = 3):
    """Order/addition preservation of the s-insertion regrouping map."""
    rng = random.Random(seed)
    results = []
    bases = ["N0", "Rc", "Ro", "Nbar0"]
    for t in range(trios):
        a, b, c = (rng.choice(bases) for _ in range(3))
        text = f"{a} \\/ ({b} \\/ {c})"
        d = parse_struct(text)
        tgt = ops.regroup_desc(d)
        ok = True
        detail = ""
        n = 0
        for n in range(1, cases + 1):
            x = random_value(rng, d)
            y = random_value(rng, d)
            fx, fy = ops.assoc_iso(d, x), ops.assoc_iso(d, y)
            if ops.assoc_iso(d, ops.add(d, x, y)) != ops.add(tgt, fx, fy):
                ok, detail = False, f"addition not preserved at {x!r},{y!r}"
                break
            if ops.cmp(d, x, y) != ops.cmp(tgt, fx, fy):
                ok, detail = False, f"order not preserved at {x!r},{y!r}"
                break
            if ops.assoc_iso_inv(tgt, fx) != x:
                ok, detail = False, f"not injective at {x!r}"
                break
        results.append(LawResult(f"assoc_iso[{text}]", "isomorphism", n, ok, detail))
    return results
