"""The benchmark's four workloads.

Each workload makes its documents and its request stream from the seed
alone, times only the calls into lexiring, and knows the answer every
request must produce.  ``eval``, ``inference`` and ``tree`` answers come
from the independent model in ``oracle.py``; ``laws`` requires every law
to pass.  Why each workload exists is its ``why`` (also in README.md).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import oracle

LAW_STRUCTURES = ("S", "O", "P", "Obar", "Sn(2)", "On(2)", "Pn(2)")


def _literal(level: int, num: int, den: int) -> str:
    return f"({level},{num}/{den})"


class Workload:
    name = ""
    why = ""
    # lexiring modules imported during set-up (after ``import lexiring``)
    modules: tuple = ()
    # requests per measured window: whole rotations, so every window has the same mix
    window = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.documents = self.make_documents(random.Random(f"{self.name}/{seed}/documents"))

    def make_documents(self, rng):
        return None

    def load(self, lx):
        """Parse, construct and validate the documents; timed as set-up."""
        return None

    def requests(self):
        """Endless request stream ``(kind, args, expected)``; deterministic per seed."""
        raise NotImplementedError

    def call(self, lx, state, req) -> str:
        """The timed part: one request into lexiring, answered as text."""
        raise NotImplementedError

    def check(self, req, out: str) -> bool:
        return out == req[2]

    def fingerprint(self, n: int = 50) -> str:
        """Documents plus the first ``n`` requests, for telling seeds apart."""
        stream = self.requests()
        head = [next(stream)[:2] for _ in range(n)]
        return json.dumps([self.documents, head], sort_keys=True, default=str)


class Laws(Workload):
    name = "laws"
    why = ("the law-suite path of acceptance criterion 4 and selfcheck: public ops, "
           "check_value and random_value on small operands")
    modules = ("lexiring.laws",)
    window = len(LAW_STRUCTURES)
    cases = 10

    def load(self, lx):
        return {s: lx.lexiring.parse_struct(s) for s in LAW_STRUCTURES}

    def requests(self):
        rng = random.Random(f"laws/{self.seed}/requests")
        i = 0
        while True:
            yield ("suite", (LAW_STRUCTURES[i % len(LAW_STRUCTURES)], rng.randrange(2**31)), None)
            i += 1

    def call(self, lx, descs, req):
        struct, seed = req[1]
        return "\n".join(r.line() for r in lx.laws.structure_laws(descs[struct], seed, self.cases))

    def check(self, req, out):
        return all(line.startswith("PASS ") for line in out.split("\n"))


class Eval(Workload):
    name = "eval"
    why = ("in-process `lexiring eval P`: argparse, expression parsing and formatting, "
           "plus long dependent chains whose operands grow to thousands of bits")
    modules = ("lexiring.cli",)
    # (kind, terms) in a fixed rotation, so every seed sees the same size mix
    shapes = (("prod", 8), ("sum", 8), ("prod", 32), ("sum", 32), ("prod", 8),
              ("sum", 8), ("prod", 32), ("sum", 32), ("prod", 200), ("sum", 200))
    window = len(shapes)
    bits = 20

    def requests(self):
        rng = random.Random(f"eval/{self.seed}/requests")
        lo, hi = 2 ** (self.bits - 1), 2**self.bits
        i = 0
        while True:
            kind, n = self.shapes[i % len(self.shapes)]
            i += 1
            parts, acc = [], None
            if kind == "prod":
                acc = (0, Fraction(1))
                for _ in range(n):
                    lev, num, den = rng.randint(-3, 3), rng.randrange(lo, hi), rng.randrange(lo, hi)
                    x = (lev, Fraction(num, den))
                    if rng.random() < 0.25:
                        parts.append(f"inv({_literal(lev, num, den)})")
                        x = oracle.inv(x)
                    else:
                        parts.append(_literal(lev, num, den))
                    acc = oracle.mul(acc, x)
                expr = "*".join(parts)
            else:
                for den in rng.sample(range(lo, hi), n):
                    lev, num = rng.choice((0, 0, 0, -1)), rng.randrange(1, hi)
                    parts.append(_literal(lev, num, den))
                    acc = oracle.add(acc, (lev, Fraction(num, den)))
                expr = "+".join(parts)
            yield (f"{kind}{n}", expr, oracle.fmt(acc) + "\n")

    def call(self, lx, state, req):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lx.cli.main(["eval", "P", req[1]])
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()


class Inference(Workload):
    name = "inference"
    why = ("aggregates: event measures, conditioning and Bayes over a 3,000-atom P scene, "
           "with writes that replace the measure")
    modules = ("lexiring.scenes", "lexiring.prob")
    n_atoms = 3000
    levels = (0, -1, -3)  # the gap at -2 makes the first write's align_levels do work
    n_events = 8
    n_cells = 8
    # per block of 25 requests: 22 cond_prob, 1 bayes, 2 writes (88% / 4% / 8%)
    block = ("cond",) * 5 + ("write",) + ("cond",) * 6 + ("bayes",) + ("cond",) * 5 + ("write",) + ("cond",) * 6
    window = len(block)

    def make_documents(self, rng):
        atoms = []
        for i in range(self.n_atoms):
            lev = rng.choices(self.levels, weights=(5, 3, 2))[0]
            atoms.append((f"a{i}", lev, rng.randint(1, 1000)))
        totals = {lev: sum(w for _, l, w in atoms if l == lev) for lev in self.levels}
        events = {}
        for j in range(self.n_events):
            # fixed event densities, so the work per request does not depend on the seed
            p = 0.05 + 0.06 * j
            events[f"E{j}"] = [a for a, _, _ in atoms if rng.random() < p] or [atoms[j][0]]
        cells = {f"C{j}": [] for j in range(self.n_cells)}
        for i, (a, _, _) in enumerate(atoms):
            cells[f"C{i if i < self.n_cells else rng.randrange(self.n_cells)}"].append(a)
        events.update(cells)
        self.model = {a: (lev, w) for a, lev, w in atoms}
        self.level_totals = totals
        return {
            "structure": "P",
            "atoms": [{"id": a, "value": _literal(lev, w, totals[lev])} for a, lev, w in atoms],
            "events": events,
        }

    def load(self, lx):
        m = lx.scenes.scene_from_dict(self.documents)
        report = lx.prob.validate_probability(m)
        if not report["ok"]:
            raise RuntimeError(f"generated scene is not a probability measure: {report['failures']}")
        return {"m": m}

    # -- oracle ----------------------------------------------------------

    def _value_table(self):
        """Top original level and its weight sum for every event and every intersection used."""
        events = {name: set(members) for name, members in self.documents["events"].items()}

        def value(atoms):
            best = None
            for a in atoms:
                lev, w = self.model[a]
                if best is None or lev > best[0]:
                    best = [lev, w]
                elif lev == best[0]:
                    best[1] += w
            return None if best is None else (best[0], Fraction(best[1], self.level_totals[best[0]]))

        table = {name: value(ev) for name, ev in events.items()}
        for a in events:
            for b in events:
                if b.startswith("E"):
                    table[a, b] = value(events[a] & events[b])
        return table

    def requests(self):
        rng = random.Random(f"inference/{self.seed}/requests")
        table = self._value_table()
        level_map = {lev: lev for lev in self.levels}
        events = [f"E{j}" for j in range(self.n_events)]
        cells = [f"C{j}" for j in range(self.n_cells)]

        def now(key):
            v = table[key]
            return None if v is None else (level_map[v[0]], v[1])

        i = 0
        while True:
            kind = self.block[i % len(self.block)]
            i += 1
            if kind == "cond":
                a, b = rng.choice(events), rng.choice(events)
                vab = now((a, b))
                want = oracle.fmt(None if vab is None else oracle.div(vab, now(b)))
                yield (kind, (a, b), want)
            elif kind == "bayes":
                b = rng.choice(events)
                terms, parts = [], []
                for c in cells:
                    prior, joint = now(c), now((c, b))
                    cond = None if joint is None else oracle.div(joint, prior)
                    terms.append((c, cond, prior, oracle.mul(cond, prior)))
                total = None
                for *_, term in terms:
                    total = oracle.add(total, term)
                for c, cond, prior, term in terms:
                    post = None if term is None else oracle.div(term, total)
                    parts.append(f"{c}:{oracle.fmt(cond)},{oracle.fmt(prior)},{oracle.fmt(post)}")
                yield (kind, (cells, b), f"total={oracle.fmt(total)};" + ";".join(parts))
            else:
                k = rng.choice((-2, -1, 1, 2))
                # shift_levels moves every level by k; align_levels then closes gaps below the top
                top = max(level_map.values()) + k
                level_map = {lev: top - rank for rank, lev in enumerate(sorted(self.levels, reverse=True))}
                yield (kind, k, " ".join(str(level_map[lev]) for lev in sorted(self.levels)))

    def call(self, lx, state, req):
        kind, args, _ = req
        m = state["m"]
        fmt = lx.values.format_value
        if kind == "cond":
            ev = m.space.event
            return fmt(m.desc, lx.prob.cond_prob(m, ev(args[0]), ev(args[1])))
        if kind == "bayes":
            cells, b = args
            t = lx.prob.bayes(m, cells, b)
            d = m.desc
            return f"total={fmt(d, t['total'])};" + ";".join(
                f"{c}:{fmt(d, t['conditionals'][c])},{fmt(d, t['priors'][c])},{fmt(d, t['posteriors'][c])}"
                for c in cells
            )
        new = lx.measure.align_levels(lx.measure.shift_levels(m, args))
        state["m"] = new
        return " ".join(map(str, new.attained_levels()))


class Tree(Workload):
    name = "tree"
    why = ("metric-tree queries on a bushy and a deep 5,000-node tree: separates an O(depth) "
           "walk from an O(log n) lift; tree building shows in set-up and memory")
    modules = ("lexiring.scenes", "lexiring.tree")
    n_nodes = 5000
    edge_levels = (1, 0, -1)  # highest first
    scale = 12  # lcm of the residue denominators 1..4
    # per 10 queries on each tree: 5 distance, 3 meet, 2 segment
    ops = ("distance", "meet", "distance", "segment", "distance", "meet", "distance", "segment", "distance", "meet")
    window = 2 * len(ops)

    def make_documents(self, rng):
        docs, self.oracles = [], []
        for prefix, parent in (("b", self._bushy(rng)), ("d", self._deep(rng))):
            names = [f"{prefix}{v}" for v in range(self.n_nodes)]
            edges, doc_edges = [None], []
            for v in range(1, self.n_nodes):
                lev = rng.choices(self.edge_levels, weights=(1, 6, 3))[0]
                num, den = rng.randint(1, 9), rng.randint(1, 4)
                edges.append((lev, num * (self.scale // den)))
                doc_edges.append({"a": names[parent[v]], "b": names[v], "value": _literal(lev, num, den)})
            docs.append({"structure": "O", "nodes": names, "edges": doc_edges})
            self.oracles.append(oracle.RootedTree(names, parent, edges, self.edge_levels, self.scale))
        return docs

    def _bushy(self, rng):
        """Random recursive tree: each node hangs off a uniformly chosen earlier one."""
        return [0] + [rng.randrange(v) for v in range(1, self.n_nodes)]

    def _deep(self, rng):
        """A spine of half the nodes with branches of 1 to 3 nodes hanging off it."""
        spine = self.n_nodes // 2
        parent = [0] + list(range(spine - 1))
        while len(parent) < self.n_nodes:
            at = rng.randrange(spine)
            for _ in range(min(rng.randint(1, 3), self.n_nodes - len(parent))):
                parent.append(at)
                at = len(parent) - 1
        return parent

    def load(self, lx):
        return [lx.scenes.tree_from_dict(doc) for doc in self.documents]

    def requests(self):
        rng = random.Random(f"tree/{self.seed}/requests")
        n = self.n_nodes
        i = 0
        while True:
            which, op = i % 2, self.ops[(i // 2) % len(self.ops)]
            i += 1
            rt = self.oracles[which]
            if op == "distance":
                x, y = rng.randrange(n), rng.randrange(n)
                yield (op, (which, rt.names[x], rt.names[y]), oracle.fmt(rt.distance(x, y)))
            elif op == "meet":
                x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                yield (op, (which, rt.names[x], rt.names[y], rt.names[z]), rt.names[rt.meet(x, y, z)])
            else:
                x, y = rng.randrange(n), rng.randrange(n)
                yield (op, (which, rt.names[x], rt.names[y]), " ".join(rt.names[v] for v in rt.path(x, y)))

    def call(self, lx, trees, req):
        op, (which, *nodes), _ = req
        t = trees[which]
        if op == "distance":
            return lx.values.format_value(t.desc, lx.tree.distance(t, *nodes))
        if op == "meet":
            return lx.tree.meet(t, *nodes)
        return " ".join(lx.tree.segment(t, *nodes))


WORKLOADS = {w.name: w for w in (Laws, Eval, Inference, Tree)}
