"""Command-line front door.

Subcommands: ``eval``, ``measure``, ``prob``, ``tree``, ``weights``,
``selfcheck``.  Output is exact literals only; ``--format json`` prints
one JSON object per line with sorted keys, so outputs are byte-stable.

Exit codes: 0 success, 1 domain or validation failure, 2 usage or parse
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import ops
from .dartboard import BUILTIN_SCENES
from .descriptors import TokenStream, capabilities, parse_struct
from .errors import LexiringError, ParseError, ShapeError
from .kernel import kernel_of
from .seq import LevelRamp, Repeat, ResidueRamp, SeqGen, require_int_levels, sum_sequence, sup_sequence
from .values import format_value, parse_value


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------

_GENS = ("repeat", "levelramp", "resramp")


class _ExprEval(TokenStream):
    """Expressions over literals, parsed on one token stream.

    The kernel's ``read`` reads each literal on this cursor; it is checked whole.

    Where an atom may be a literal or a parenthesised expression, the
    literal is tried first.  When every route fails, the error raised is
    the one of the route that read furthest.

    Every atom is well-shaped when read, and a chain of terms or factors
    is folded by the kernel's n-ary ``sum`` or ``prod`` without checking
    it again: a long ``*`` chain reduces its fraction once.
    """

    def __init__(self, desc, text: str):
        super().__init__(text)
        self.d = desc
        self.k = kernel_of(desc)
        self.furthest = (-1, None)  # (token index, error) of the literal that read furthest

    def run(self):
        """Returns ('cmp', -1|0|1) or ('value', Value)."""
        try:
            if self.peek() == "cmp":
                self.next()
                self.expect("(")
                a = self.expr()
                self.expect(",")
                b = self.expr()
                self.expect(")")
                self.done()
                return "cmp", self.k.cmp(a, b)
            v = self.expr()
            self.done()
        except ParseError:
            at, exc = self.furthest
            if at >= self.pos:
                raise exc from None
            raise
        return "value", v

    def expr(self):
        terms, toks = [self.product()], self.toks
        while self.pos < len(toks) and toks[self.pos] == "+":
            self.pos += 1
            terms.append(self.product())
        return terms[0] if len(terms) == 1 else self.k.sum(terms)

    def product(self):
        factors, toks = [self.atom()], self.toks
        while self.pos < len(toks) and toks[self.pos] == "*":
            self.pos += 1
            factors.append(self.atom())
            if len(factors) == 2:
                ops.require_semiring(self.d)  # as soon as a second factor is read, before a third
        return factors[0] if len(factors) == 1 else self.k.prod(factors)

    def atom(self):
        tok = self.peek()
        if tok == "inv":
            self.next()
            self.expect("(")
            v = self.expr()
            self.expect(")")
            return ops.inv(self.d, v)
        if tok in ("sum", "sup"):
            return self.series(self.next())
        if tok == "cmp":
            self.next()
            raise self.error("cmp(...) only makes sense at the top level")
        save, k = self.pos, self.k
        try:
            return k.check(k.read(self))
        except (ParseError, ShapeError) as exc:
            if self.pos > self.furthest[0]:
                self.furthest = (self.pos, exc)
            self.pos = save
        if tok == "(":
            self.next()
            v = self.expr()
            self.expect(")")
            return v
        tok = self.next()
        raise self.error(f"unexpected token {tok!r}")

    def literal(self, k):
        return k.check(k.read(self))

    def series(self, which: str):
        self.expect("(")
        head, tail = [], None
        more = self.peek() != ")"
        while more:  # arguments are separated by commas, with none after the last
            tok = self.peek()
            if tok in _GENS:
                if tail is not None:
                    raise self.error("only one generator per series", self.pos)
                self.next()
                self.expect("(")
                if tok == "repeat":
                    tail = Repeat(self.literal(self.k))
                elif tok == "levelramp":
                    require_int_levels(self.d)
                    start = self.int()
                    self.expect(",")
                    step = self.int()
                    self.expect(",")
                    tail = LevelRamp(start, step, self.literal(self.k.parts[1]))
                else:
                    require_int_levels(self.d)
                    lev = self.int()
                    self.expect(",")
                    tail = ResidueRamp(lev, self.literal(self.k.parts[1]))
                self.expect(")")
            else:
                head.append(self.expr())
            more = self.peek() == ","
            if more:
                self.next()
        self.expect(")")
        return (sum_sequence if which == "sum" else sup_sequence)(self.d, SeqGen(head, tail))


def eval_expression(struct_text: str, expr_text: str) -> str:
    """``lexiring eval``'s result: a literal or LT/EQ/GT; ``ValueError`` past the int-to-str limit (see ``errors``)."""
    d = parse_struct(struct_text)
    kind, out = _ExprEval(d, expr_text).run()
    if kind == "cmp":
        return {-1: "LT", 0: "EQ", 1: "GT"}[out]
    return format_value(d, out)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

class _Out:
    def __init__(self, fmt: str):
        self.fmt = fmt

    def emit(self, obj: dict, text_line: str):
        if self.fmt == "json":
            print(json.dumps(obj, sort_keys=True))
        else:
            print(text_line)


def _fmt_map(desc, mapping):
    return {k: format_value(desc, v) for k, v in mapping.items()}


def _scene_arg(args):
    from .scenes import builtin_scene, load_scene

    if args.builtin:
        return builtin_scene(args.builtin)
    if not args.scene:
        raise ParseError("a scene file or --builtin name is required")
    return load_scene(args.scene)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_eval(args, out: _Out) -> int:
    result = eval_expression(args.structure, args.expression)
    out.emit({"result": result}, result)
    return 0


def _cmd_measure(args, out: _Out) -> int:
    from .measure import align_levels, shift_levels, slice_at, total_height
    from .scenes import scene_to_dict

    m = _scene_arg(args)
    if args.action == "validate":
        caps = capabilities(m.desc)
        out.emit(
            {"ok": True, "atoms": len(m.space.atoms), "events": sorted(m.space.events), "capabilities": caps},
            f"ok: {len(m.space.atoms)} atoms, events {sorted(m.space.events)}",
        )
        return 0
    if args.action == "eval":
        ev = m.space.event(args.event)
        lit = format_value(m.desc, m.value(ev))
        out.emit({"event": args.event, "result": lit}, lit)
        return 0
    if args.action == "slice":
        ev = m.space.event(args.event)
        lit = str(slice_at(m, args.level, ev))
        out.emit({"event": args.event, "level": args.level, "result": lit}, lit)
        return 0
    if args.action == "height":
        h = total_height(m)
        out.emit({"height": h}, str(h))
        return 0
    new = align_levels(m) if args.action == "align" else shift_levels(m, args.by)
    doc = scene_to_dict(new)
    out.emit(doc, " ".join(f"{a['id']}={a['value']}" for a in doc["atoms"]))
    return 0


def _cmd_prob(args, out: _Out) -> int:
    from .prob import bayes, cond_prob, standardize, validate_probability

    m = _scene_arg(args)
    if args.action == "validate":
        report = validate_probability(m)
        out.emit(
            report,
            ("ok" if report["ok"] else "FAIL: " + "; ".join(report["failures"]))
            + f" level masses {report['level_masses']}",
        )
        return 0 if report["ok"] else 1
    if args.action == "cond":
        if not args.event or not args.given:
            raise ParseError("prob cond needs --event and --given")
        v = cond_prob(m, m.space.event(args.event), m.space.event(args.given))
        lit = format_value(m.desc, v)
        out.emit({"event": args.event, "given": args.given, "result": lit}, lit)
        return 0
    if args.action == "bayes":
        if not args.partition or not args.given:
            raise ParseError("prob bayes needs --partition and --given")
        cells = [s.strip() for s in args.partition.split(",") if s.strip()]
        table = bayes(m, cells, args.given)
        obj = {
            "given": args.given,
            "total": format_value(m.desc, table["total"]),
            "conditionals": _fmt_map(m.desc, table["conditionals"]),
            "priors": _fmt_map(m.desc, table["priors"]),
            "posteriors": _fmt_map(m.desc, table["posteriors"]),
        }
        text = "; ".join(f"P({c}|{args.given})={obj['posteriors'][c]}" for c in cells)
        out.emit(obj, f"total={obj['total']}; {text}")
        return 0
    m = standardize(m)
    depth, atoms = -m.attained_levels()[0], _fmt_map(m.desc, m.atom_values)
    out.emit({"depth": depth, "atoms": atoms},
             f"depth={depth} " + " ".join(f"{a}={v}" for a, v in sorted(atoms.items())))
    return 0


def _cmd_tree(args, out: _Out) -> int:
    from .scenes import load_tree
    from .tree import distance, verify_metric

    t = load_tree(args.file)
    if args.action == "dist":
        if not args.x or not args.y:
            raise ParseError("tree dist needs two node names")
        lit = format_value(t.desc, distance(t, args.x, args.y))
        out.emit({"x": args.x, "y": args.y, "result": lit}, lit)
        return 0
    report = verify_metric(t)
    out.emit(report, "ok" if report["ok"] else "FAIL: " + "; ".join(report["failures"]))
    return 0 if report["ok"] else 1


def _cmd_weights(args, out: _Out) -> int:
    from .scenes import load_track
    from .weights import apply_deck, check_branch_equations

    g, w, c = load_track(args.file)
    if args.action == "check":
        report = check_branch_equations(g, w, c)
        out.emit(
            report,
            "ok" if report["ok"] else "FAIL: "
            + "; ".join(f"switch {s['switch']}: {s['side1']} != {s['side2']}" for s in report["switches"] if not s["equal"]),
        )
        return 0 if report["ok"] else 1
    if not args.scalar:
        raise ParseError("weights deck needs --scalar")
    lam = parse_value(w.desc, args.scalar)
    new = apply_deck(w, lam)
    weights = _fmt_map(new.desc, new.weights)
    out.emit({"weights": weights}, " ".join(f"{s}={v}" for s, v in sorted(weights.items())))
    return 0


def _cmd_selfcheck(args, out: _Out) -> int:
    from .laws import run_selfcheck

    if args.cases < 1:
        raise ParseError(f"selfcheck --cases must be at least 1, not {args.cases}")
    ok, results = run_selfcheck(args.seed, args.cases)
    for r in results:
        out.emit(r.as_dict(), r.line())
    out.emit(
        {"ok": ok, "suites": len(results), "seed": args.seed, "cases": args.cases},
        f"{'PASS' if ok else 'FAIL'}: {len(results)} suites (seed={args.seed}, cases={args.cases})",
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one argument parser of this process, built on first use."""
    p = argparse.ArgumentParser(prog="lexiring", description=__doc__)
    p.add_argument("--format", choices=("json", "text"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate an expression in a structure")
    pe.add_argument("structure")
    pe.add_argument("expression")

    pm = sub.add_parser("measure", help="scene measure queries")
    pm.add_argument("action", choices=("validate", "eval", "slice", "height", "align", "shift"))
    pm.add_argument("scene", nargs="?")
    pm.add_argument("--builtin", choices=sorted(BUILTIN_SCENES))
    pm.add_argument("--event", default="X")
    pm.add_argument("--level", type=int, default=0)
    pm.add_argument("--by", type=int, default=0)

    pp = sub.add_parser("prob", help="probability queries")
    pp.add_argument("action", choices=("validate", "cond", "bayes", "standardize"))
    pp.add_argument("scene", nargs="?")
    pp.add_argument("--builtin", choices=sorted(BUILTIN_SCENES))
    pp.add_argument("--event")
    pp.add_argument("--given")
    pp.add_argument("--partition")

    pt = sub.add_parser("tree", help="tree metric queries")
    pt.add_argument("action", choices=("dist", "verify"))
    pt.add_argument("file")
    pt.add_argument("x", nargs="?")
    pt.add_argument("y", nargs="?")

    pw = sub.add_parser("weights", help="branched-graph weight checks")
    pw.add_argument("action", choices=("check", "deck"))
    pw.add_argument("file")
    pw.add_argument("--scalar")

    ps = sub.add_parser("selfcheck", help="run the property suites")
    ps.add_argument("--seed", type=int, default=42)
    ps.add_argument("--cases", type=int, default=1000)

    return p


_HANDLERS = {
    "eval": _cmd_eval,
    "measure": _cmd_measure,
    "prob": _cmd_prob,
    "tree": _cmd_tree,
    "weights": _cmd_weights,
    "selfcheck": _cmd_selfcheck,
}


def main(argv=None) -> int:
    """Run one command line; returns the exit code.

    The argument parser is built once per process, on first use, and each
    handler imports the modules it needs, so ``eval`` loads neither the
    measure stack nor the law suites.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits itself (help, usage errors); fold into our contract
        return 0 if not exc.code else 2
    out = _Out(args.format)
    # results print at any length (inputs stop at MAX_DIGITS): lift the int-to-str limit, 0 where there is none
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _HANDLERS[args.command](args, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except LexiringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
