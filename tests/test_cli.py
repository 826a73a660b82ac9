"""Golden-file CLI tests, exit codes, and the selfcheck harness."""

import collections
import itertools
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import types

import pytest

from lexiring import descriptors as D
from lexiring import ops, scenes
from lexiring.cli import _ExprEval, _build_parser, eval_expression, main
from lexiring.dartboard import BUILTIN_SCENES
from lexiring.descriptors import TokenStream, facts, is_digits, parse_struct
from lexiring.errors import CapabilityError, DomainError, LexiringError, ParseError, ShapeError
from lexiring.kernel import Kernel, kernel_of
from lexiring.laws import random_value
from lexiring.values import TOP, ZERO, Pair, Scalar, Signed, check_value, format_value, is_zero, parse_value, zero
from lexiring.xreal import INF, XReal

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

GOLDEN_CASES = {
    "eval_div.txt": ["--format", "json", "eval", "P", "(-1,3/4) * inv((0,1/2))"],
    "eval_add.txt": ["--format", "json", "eval", "S", "(1,1/4)+(1,1/2)"],
    "eval_witness_right.txt": ["--format", "json", "eval", r"N0 /\ (N0 /\ N0)", "(1,(1,1))*(2,(1,1))"],
    "eval_witness_left.txt": ["--format", "json", "eval", r"(N0 /\ N0) /\ N0", "((1,1),1)*((2,1),1)"],
    "eval_cmp.txt": ["--format", "json", "eval", "O", "cmp((0,5),(1,1/10))"],
    "eval_sum_ramp.txt": ["--format", "json", "eval", "Obar", "sum(levelramp(1,1,1))"],
    "eval_sup_resramp.txt": ["--format", "json", "eval", "S", "sup(resramp(4,1))"],
    "prob_cond_cross_upper.txt": ["--format", "json", "prob", "cond", "--builtin", "dartboard", "--given", "upper", "--event", "cross"],
    "prob_cond_vray_cross.txt": ["--format", "json", "prob", "cond", "--builtin", "dartboard", "--given", "cross", "--event", "upper_vray"],
    "prob_cond_vray_upper.txt": ["--format", "json", "prob", "cond", "--builtin", "dartboard", "--given", "upper", "--event", "upper_vray"],
    "prob_bayes_quadrants.txt": ["--format", "json", "prob", "bayes", "--builtin", "dartboard", "--partition", "Q1,Q2,Q3,Q4", "--given", "hline"],
    "prob_validate_dartboard.txt": ["--format", "json", "prob", "validate", "--builtin", "dartboard"],
    "prob_standardize_depth2.txt": ["--format", "json", "prob", "standardize", "--builtin", "dartboard-depth2"],
    "measure_eval_upper.txt": ["--format", "json", "measure", "eval", "--builtin", "dartboard", "--event", "upper"],
    "measure_slice_cross.txt": ["--format", "json", "measure", "slice", "--builtin", "dartboard", "--event", "cross", "--level", "-1"],
    "measure_height_depth2.txt": ["--format", "json", "measure", "height", "--builtin", "dartboard-depth2"],
    "measure_shift_dartboard.txt": ["--format", "json", "measure", "shift", "--builtin", "dartboard", "--by", "2"],
    "measure_align_depth2.txt": ["--format", "json", "measure", "align", "--builtin", "dartboard-depth2"],
    "prob_standardize_dartboard.txt": ["--format", "json", "prob", "standardize", "--builtin", "dartboard"],
    "weights_check_stretch.txt": ["--format", "json", "weights", "check", "stretch"],
    "weights_deck_levelshift.txt": ["--format", "json", "weights", "deck", "levelshift", "--scalar", "(-1,1)"],
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_CASES))
def test_golden_outputs(golden, capsys):
    argv = GOLDEN_CASES[golden]
    assert main(argv) == 0
    got = capsys.readouterr().out
    assert got == (GOLDEN_DIR / golden).read_text()


def test_golden_outputs_are_valid_json():
    for golden in GOLDEN_CASES:
        for line in (GOLDEN_DIR / golden).read_text().splitlines():
            json.loads(line)


def test_eval_expression_variants():
    assert eval_expression("P", "(-1,3/4) * inv((0,1/2))") == "(-1,3/2)"
    assert eval_expression("O", "((0,1) + (0,2)) * (1,2)") == "(1,6)"
    assert eval_expression("O", "sum((1,1/4),(1,1/2),(0,9))") == "(1,3/4)"
    assert eval_expression("O", "sup((0,5),(1,1/10))") == "(1,1/10)"
    assert eval_expression("S", "sum(repeat((3,1/2)))") == "(3,inf)"
    assert eval_expression("double(O)", "(1,3/4) + -(1,1/4)") == "(1,1/2)"
    assert eval_expression("P", "cmp((0,1),(0,1))") == "EQ"


def test_exit_codes(capsys):
    assert main(["eval", "P", "(0,1) +"]) == 2  # expression parse error
    assert main(["eval", "NOPE", "(0,1)"]) == 2  # structure parse error
    assert main(["prob", "cond", "--builtin", "dartboard", "--given", "center", "--event", "cross"]) == 1
    assert main(["measure", "eval", "--event", "upper"]) == 2  # no scene given
    assert main(["prob", "cond", "--builtin", "dartboard", "--event", "cross"]) == 2  # missing --given
    assert main(["weights", "deck", "stretch"]) == 2  # missing --scalar
    assert main(["bogus"]) == 2
    capsys.readouterr()


def test_text_format(capsys):
    assert main(["eval", "P", "(0,1/2) * (0,1/2)"]) == 0
    assert capsys.readouterr().out == "(0,1/4)\n"


def test_scene_files_roundtrip(tmp_path, capsys):
    scene = {
        "structure": "P",
        "atoms": [
            {"id": "a", "value": "(0,1)"},
            {"id": "b", "value": "(-1,1)"},
        ],
        "events": {"A": ["a"]},
    }
    f = tmp_path / "scene.json"
    f.write_text(json.dumps(scene))
    assert main(["--format", "json", "prob", "validate", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]


def test_a_scene_file_named_like_a_builtin_scene_is_read_as_a_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dartboard").write_text(json.dumps({"structure": "P", "atoms": [{"id": "a", "value": "(0,1)"}]}))
    assert main(["measure", "validate", "dartboard"]) == 0
    assert capsys.readouterr().out == "ok: 1 atoms, events []\n"
    assert main(["measure", "validate", "--builtin", "dartboard"]) == 0
    assert capsys.readouterr().out.startswith("ok: 9 atoms")
    (tmp_path / "dartboard").unlink()
    assert main(["measure", "validate", "dartboard"]) == 2
    assert capsys.readouterr().err == "parse error: cannot read 'dartboard': No such file or directory\n"


def test_tree_cli(tmp_path, capsys):
    doc = {
        "structure": "O",
        "nodes": ["a", "b", "c"],
        "edges": [
            {"a": "a", "b": "b", "value": "(1,1)"},
            {"a": "b", "b": "c", "value": "(0,5)"},
        ],
    }
    f = tmp_path / "tree.json"
    f.write_text(json.dumps(doc))
    assert main(["--format", "json", "tree", "dist", str(f), "a", "c"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == "(1,1)"
    assert main(["--format", "json", "tree", "verify", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]


ROUNDTRIP_STRUCTS = [
    "S", "O", "P", "Obar", "Sbar", "Sn(2)", "On(2)", "Pn(2)", "Pn(3)",
    r"N0 \/ N0", r"(N0 \/ N0) /\ Rc", r"N0 /\ (N0 /\ N0)", "double(O)", "double(S)",
    "mixed(N0; 0..2; 0:Rc, 1:Rc, 2:Nbar0)",
]


def test_parse_format_roundtrip_fuzz():
    rng = random.Random(31)
    descs = [parse_struct(s) for s in ROUNDTRIP_STRUCTS]
    for _ in range(2000):
        d = rng.choice(descs)
        v = random_value(rng, d)
        text = format_value(d, v)
        assert parse_value(d, text) == v
        assert format_value(d, parse_value(d, text)) == text


# tokens a mutation may insert: the literal alphabet, a non-ASCII digit, and
# operators and names of the other grammars
MUTATION_TOKENS = ["(", ")", ",", "/", "-", "+", "*", "0", "1", "12", "inf", "top", "²", "..", ";", "x", " "]


def _flatten(toks):
    """Flat-tuple sugar: drop the parentheses of every pair that ends a pair as its residue, (1,(2,3)) -> (1,2,3)."""
    i = 1
    while i < len(toks):
        if toks[i] == "(" and toks[i - 1] == ",":
            depth, j = 0, i
            while j < len(toks):
                depth += {"(": 1, ")": -1}.get(toks[j], 0)
                if depth == 0:
                    break
                j += 1
            if j + 1 < len(toks) and toks[j + 1] == ")":
                del toks[j], toks[i]
                continue
        i += 1
    return toks


def _mutations(rng, structs, n, flat=False):
    """n draws of (structure text, descriptor, value, its literal after one to three token edits).

    With flat, every second literal is written as flat tuples before its edits.
    """
    pairs = [(s, parse_struct(s)) for s in structs]
    for draw in range(n):
        text, d = rng.choice(pairs)
        v = random_value(rng, d)
        toks = re.findall(r"[0-9]+|[A-Za-z]+|\S", format_value(d, v))
        if flat and draw % 2:
            _flatten(toks)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(toks) + 1)
            edit = rng.choice(("insert", "delete", "replace"))
            if edit == "insert" or i == len(toks):
                toks.insert(i, rng.choice(MUTATION_TOKENS))
            elif edit == "delete":
                del toks[i]
            else:
                toks[i] = rng.choice(MUTATION_TOKENS)
        yield text, d, v, "".join(toks)


def test_mutated_literals_fail_cleanly():
    for text, d, _, mutated in _mutations(random.Random(47), ROUNDTRIP_STRUCTS, 3000):
        for parse in (lambda: parse_value(d, mutated), lambda: eval_expression(text, mutated)):
            try:
                parse()
            except LexiringError:
                pass


# ---------------------------------------------------------------------------
# differential oracle: the literal reader, printer and inverse that
# dispatched on descriptor classes, kept here as the reference for the
# kernel's read, fmt and inv
# ---------------------------------------------------------------------------

def _ref_residue_desc(d, level):
    if d.lo is not None and level < d.lo or d.hi is not None and level > d.hi or d.base.name == "N0" and level < 0:
        return None
    return dict(d.table).get(level, d.default)


_REF_PAIRS = (D.SInsert, D.BarSInsert, D.Insert, D.BarInsert, D.MixedInsert)


class _RefParser(TokenStream):
    """Literal grammar; values are built unchecked and checked once, whole."""

    def value(self, d):
        tok = self.peek()
        if isinstance(d, D.DoubleOf):
            sign = 1
            if tok in ("+", "-"):
                self.next()
                sign = -1 if tok == "-" else 1
            if self.peek() == "0" and sign == 1 and self.toks[self.pos + 1:self.pos + 2] != ["/"]:
                self.next()
                return ZERO
            return Signed(sign, self.value(d.inner))
        if tok == "top":
            if not isinstance(d, (D.BarInsert, D.BarSInsert)):
                raise ShapeError(f"'top' is not an element of {d!r}")
            self.next()
            return TOP
        if tok == "0" and not isinstance(d, D.Base) and self.toks[self.pos + 1:self.pos + 2] != ["/"]:
            self.next()
            return zero(d)
        if isinstance(d, D.Base):
            return self.scalar(d)
        self.expect("(")
        v = self.pair_body(d)
        self.expect(")")
        return v

    def pair_body(self, d):
        if isinstance(d, D.MixedInsert):
            lv = self.int()
            sub = _ref_residue_desc(d, lv)
            if sub is None:
                raise ShapeError(f"level {lv} lies outside the mixed insertion range")
            self.expect(",")
            return Pair(Scalar(lv), self.component(sub))
        lv = self.value(d.a)
        self.expect(",")
        return Pair(lv, self.component(d.b))

    def component(self, d):
        if isinstance(d, _REF_PAIRS) and self.peek() not in ("(", "top"):
            if self.peek() == "0" and self.toks[self.pos + 1:self.pos + 2] not in ([","], ["/"]):
                return self.value(d)
            return self.pair_body(d)
        return self.value(d)

    def scalar(self, d):
        if d.name in ("N0", "Z"):
            return Scalar(self.int())
        tok = self.next()
        if tok == "inf":
            return Scalar(INF)
        if not is_digits(tok):
            raise self.error(f"expected a rational or 'inf', found {tok!r}")
        if self.peek() != "/":
            return Scalar(XReal(int(tok)))
        self.next()
        den = self.next()
        if not is_digits(den) or int(den) == 0:
            raise self.error(f"bad denominator {den!r}")
        return Scalar(XReal(int(tok), int(den)))


def _ref_parse(d, text):
    p = _RefParser(text)
    v = check_value(d, p.value(d))
    p.done()
    return v


def _ref_format(d, v):
    if is_zero(d, v):
        return "0"
    if v is TOP:
        return "top"
    if isinstance(d, D.Base):
        return str(v.x)
    if isinstance(d, D.MixedInsert):
        return f"({v.level.x},{_ref_format(_ref_residue_desc(d, v.level.x), v.residue)})"
    if isinstance(d, D.DoubleOf):
        body = _ref_format(d.inner, v.mag)
        return body if v.sign > 0 else f"-{body}"
    return f"({_ref_format(d.a, v.level)},{_ref_format(d.b, v.residue)})"


def _ref_neg_level(d, lv):
    if isinstance(d, D.Base) and d.name == "Z":
        return Scalar(-lv.x)
    if isinstance(d, D.Base) and d.name == "N0" and lv.x == 0:
        return lv
    raise DomainError(f"level {lv!r} cannot be negated in {d!r}")


def _ref_inv(d, v):
    if v is TOP:
        raise DomainError("top has no multiplicative inverse")
    if isinstance(d, D.Base):
        if isinstance(v.x, XReal):
            if v.x.is_inf:
                raise DomainError("inf has no multiplicative inverse")
            return Scalar(XReal(1) / v.x)
        if v.x == 1:
            return Scalar(1)
        raise DomainError(f"{v!r} is not invertible in {d!r}")
    return Pair(_ref_neg_level(d.a, v.level), _ref_inv(d.b, v.residue))


def _ref_inverse(d, x, semifield):
    """ops.inv (semifield) or ops.try_inv over the reference inverse."""
    k = kernel_of(d)
    if semifield and not k.semifield:
        raise CapabilityError(f"{d!r} is not a semifield; no inverses")
    if not k.semiring:
        raise CapabilityError(f"{d!r} is not a semiring")
    k.check(x)
    if k.is_zero(x):
        raise DomainError("zero has no multiplicative inverse")
    return _ref_inv(d, x)


class _RefExprEval(_ExprEval, _RefParser):
    """Expressions whose literals the reference parser reads."""

    def __init__(self, desc, text):
        super().__init__(desc, text)
        # atoms read through self.k.read: a copy of the kernel whose read is the reference parser's
        ops_ = {name: getattr(self.k, name) for name in Kernel.__slots__}
        self.k = types.SimpleNamespace(**{**ops_, "read": lambda ts: ts.value(desc)})

    def literal(self, k):
        d = self.d if k is self.k else self.d.b  # series ramps read residues of an insertion
        return check_value(d, self.value(d))


def _ref_eval(struct_text, expr_text):
    d = parse_struct(struct_text)
    kind, out = _RefExprEval(d, expr_text).run()
    return {-1: "LT", 0: "EQ", 1: "GT"}[out] if kind == "cmp" else _ref_format(d, out)


def _outcome(f, *args):
    """f's value, or its error's class and message (a ParseError message carries its position)."""
    try:
        return "value", f(*args)
    except LexiringError as exc:
        return type(exc).__name__, str(exc)


ORACLE_STRUCTS = ROUNDTRIP_STRUCTS + [
    "N0", "Z", "Rc", "Ro", "Nbar0", r"N0 b/\ Rc", r"Obar b/\ Rc", r"N0 b\/ Rc", r"Z /\ (N0 b/\ Rc)",
    r"(N0 \/ N0) /\ Ro", r"N0 /\ N0", "double(P)", r"mixed(Z; ..3; 1:N0 \/ N0, default:Rc)",
]


def test_kernel_literals_and_inverses_match_the_reference():
    counts = collections.Counter()
    for text, d, v, mutated in _mutations(random.Random(47), ORACLE_STRUCTS, 4000, flat=True):
        assert format_value(d, v) == _ref_format(d, v)
        flat = "".join(_flatten(re.findall(r"[0-9]+|[A-Za-z]+|\S", format_value(d, v))))
        assert _outcome(parse_value, d, flat) == _outcome(_ref_parse, d, flat), (text, flat)
        for x in (v, ops.add(d, v, v)):
            for semifield in (True, False):
                got = _outcome(ops.inv if semifield else ops.try_inv, d, x)
                assert got == _outcome(_ref_inverse, d, x, semifield), (text, x)
                counts["inv " + got[0]] += 1
        got = _outcome(parse_value, d, mutated)
        assert got == _outcome(_ref_parse, d, mutated), (text, mutated)
        counts["parse " + got[0]] += 1
        if got[0] == "value":
            assert format_value(d, got[1]) == _ref_format(d, got[1])
        got = _outcome(eval_expression, text, mutated)
        assert got == _outcome(_ref_eval, text, mutated), (text, mutated)
        counts["eval " + got[0]] += 1
    # every kind of outcome occurs: values, parse errors, shape errors and domain errors
    assert min(counts[f"{kind} {c}"] for kind, c in [("parse", "value"), ("parse", "ParseError"),
                                                     ("parse", "ShapeError"), ("eval", "value"),
                                                     ("inv", "value"), ("inv", "DomainError")]) >= 20, counts


# literals at the edges of the fused reader of a pairing of two bases: each must end as the composed reader ends
_PAIR_EDGES = ["(-0,1)", "(00,01/02)", "(1,2/0)", "(0,0)", "(0,0/5)", "(0,inf)", "(1,2,3)", "(-1,2", "(1,2/",
               "(1,", "(", "((0,1))", "top", "0", "0/1", "1", "(1,2))", "(1,2/3)", "(-3,4/6)", "(inf,1)", "(1/2,3)",
               "-0/1", "(1,0/1,2)"]


def test_fused_pair_reader_matches_the_reference_at_its_edges():
    for a, op, b in itertools.product(D.BASE_NAMES, ("/\\", "\\/", "b/\\", "b\\/"), D.BASE_NAMES):
        text = f"{a} {op} {b}"
        for lit in _PAIR_EDGES:
            for expr in (lit, f"{lit}*(1,1)", f"(1,1)+{lit}"):
                assert _outcome(eval_expression, text, expr) == _outcome(_ref_eval, text, expr), (text, expr)
            kind, d = _outcome(parse_struct, text)
            if kind == "value":
                assert _outcome(parse_value, d, lit) == _outcome(_ref_parse, d, lit), (text, lit)


def test_a_bare_zero_reads_as_the_reference_reads_it():
    # a 0 is a structure's zero only where no '/' follows; in a residue, a ',' after it starts a flat body
    structs = ["double(Rc)", "double(Nbar0)", "double(P)", r"N0 /\ (Rc /\ Rc)", r"Z /\ (Rc \/ N0)",
               r"mixed(N0; 0..2; 1:Rc /\ Rc, default:Rc)"]
    for text in structs:
        d = parse_struct(text)
        for lit in ("0", "-0", "0/1", "-0/1", "(1,0)", "(1,0/1)", "(1,0,2)", "(1,0/1,2)", "(1,(0/1,2))", "(0/1,1)"):
            assert _outcome(eval_expression, text, lit) == _outcome(_ref_eval, text, lit), (text, lit)
            assert _outcome(parse_value, d, lit) == _outcome(_ref_parse, d, lit), (text, lit)


def _run(capsys, argv):
    """Exit code and stderr of one CLI call; the stderr must be a single line."""
    code = main(argv)
    err = capsys.readouterr().err
    assert err.count("\n") == (1 if code else 0), err
    return code, err


def test_eval_reports_the_error_of_the_route_that_read_furthest(capsys):
    code, err = _run(capsys, ["eval", "Rc", "1/0"])
    assert code == 2 and "bad denominator '0'" in err
    code, err = _run(capsys, ["eval", "mixed(N0; 0..2; 0:Rc)", "(1,1)"])
    assert code == 1 and "level 1 lies outside the mixed insertion range" in err
    code, err = _run(capsys, ["eval", "P", "(0,inf)"])
    assert code == 1 and "inf does not belong to [0,inf)" in err


def test_number_reading_errors_are_parse_errors(capsys):
    code, err = _run(capsys, ["eval", "mixed(N0; x..2; 0:Rc)", "0"])
    assert code == 2 and "expected an integer, found 'x'" in err
    code, err = _run(capsys, ["eval", "Rc", "\u00b2"])
    assert code == 2 and "found '\u00b2'" in err


def test_ramps_need_integer_levels(capsys):
    code, err = _run(capsys, ["eval", "Rc", "sum(levelramp(1,1,1))"])
    assert code == 1 and "integer-leveled" in err


def test_unreadable_files_are_parse_errors(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"structure": "P", "atoms": [')
    deep = tmp_path / "deep.json"
    deep.write_text('{"structure": "P", "atoms": ' + "[" * 100000 + "]" * 100000 + "}")
    for argv in (["measure", "validate", str(missing)], ["tree", "dist", str(truncated), "a", "b"],
                 ["weights", "check", str(missing)], ["prob", "validate", str(truncated)],
                 ["measure", "validate", str(deep)]):
        code, err = _run(capsys, argv)
        assert code == 2 and f"cannot read {argv[2]!r}" in err


def test_string_event_is_rejected(tmp_path, capsys):
    scene = {
        "structure": "P",
        "atoms": [{"id": "a", "value": "(0,1/2)"}, {"id": "b", "value": "(0,1/2)"}],
        "events": {"E": "ab"},
    }
    f = tmp_path / "scene.json"
    f.write_text(json.dumps(scene))
    code, err = _run(capsys, ["measure", "eval", str(f), "--event", "E"])
    assert code == 1 and "not the string 'ab'" in err
    for members in (1, [["a"]], {"a": 1}):  # a mapping would read as its keys
        scene["events"]["E"] = members
        f.write_text(json.dumps(scene))
        code, err = _run(capsys, ["measure", "eval", str(f), "--event", "E"])
        assert code == 1 and f"an event is a list of atom ids, not {members!r}" in err
    scene["events"]["E"] = ["zz", 1]  # unknown members of two kinds are reported, not compared
    f.write_text(json.dumps(scene))
    code, err = _run(capsys, ["measure", "validate", str(f)])
    assert code == 1 and err == "error: unknown atoms ['zz', 1]\n"


@pytest.mark.parametrize("doc, message", [
    ({"structure": "P", "atoms": [{"id": "a"}]}, "missing field atoms[0].value"),
    ({"structure": "P", "atoms": [{"id": "a", "value": "0"}, {"value": "0"}]}, "missing field atoms[1].id"),
    ({"atoms": [{"id": "a", "value": "0"}]}, "missing field structure"),
    ({"structure": "P"}, "missing field atoms"),
    ({"structure": "P", "atoms": {"a": "0"}}, "field atoms must be a list"),
    ({"structure": "P", "atoms": ["a"]}, "atoms[0] must be an object"),
    ({"structure": "P", "atoms": [{"id": "a", "value": 0}]}, "field atoms[0].value must be a string"),
    ({"structure": "P", "atoms": [{"id": "a", "value": "0"}], "events": ["a"]}, "field events must be an object"),
    (["P"], "the document must be an object"),
])
def test_scene_documents_are_schema_checked(tmp_path, capsys, doc, message):
    f = tmp_path / "scene.json"
    f.write_text(json.dumps(doc))
    for argv in (["measure", "validate", str(f)], ["prob", "validate", str(f)]):
        code, err = _run(capsys, argv)
        assert (code, err) == (2, f"parse error: {message}\n")


TWO_SECTOR_TRACK = {
    "structure": "P",
    "sectors": ["a", "b"],
    "switches": [{"side1": [["a", "r"]], "side2": [["b", "l"]]}],
    "weights": {"a": "(0,1)", "b": "(0,1)"},
}


@pytest.mark.parametrize("argv, doc, message", [
    (["tree", "dist", "FILE", "a", "b"], {"structure": "O", "nodes": ["a", "b"], "edges": [{"a": "a", "b": "b"}]},
     "missing field edges[0].value"),
    (["tree", "dist", "FILE", "a", "b"], ["O"], "the document must be an object"),
    (["tree", "dist", "FILE", "a", "b"], {"structure": "O", "nodes": ["a", 2], "edges": []},
     "field nodes[1] must be a string"),
    (["weights", "check", "FILE"], {**TWO_SECTOR_TRACK, "switches": [{"side1": [["a", "r"]]}]},
     "missing field switches[0].side2"),
    (["weights", "check", "FILE"], {**TWO_SECTOR_TRACK, "switches": [{"side1": ["ar"], "side2": [["b", "l"]]}]},
     "field switches[0].side1[0] must be a [sector, end] pair of strings"),
    (["weights", "check", "FILE"], {**TWO_SECTOR_TRACK, "crossings": [{"sector": "a", "end": "r"}]},
     "missing field crossings[0].multiplier"),
    (["tree", "dist", "FILE", "a"], {"structure": "O", "nodes": ["a", "b"], "edges": [{"a": "a", "b": "b", "value": "(0,1)"}]},
     "tree dist needs two node names"),
])
def test_tree_and_track_documents_are_schema_checked(tmp_path, capsys, argv, doc, message):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    code, err = _run(capsys, [str(f) if a == "FILE" else a for a in argv])
    assert (code, err) == (2, f"parse error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["eval", "Obar", "sum((0,1) (0,2))"], "expected ')', found '(' (at position 10 in 'sum((0,1) (0,2))')"),
    (["eval", "Obar", "sup((0,1) (1,2))"], "expected ')', found '(' (at position 10 in 'sup((0,1) (1,2))')"),
    (["eval", "Obar", "sum(repeat((0,1)) (0,1))"],
     "expected ')', found '(' (at position 18 in 'sum(repeat((0,1)) (0,1))')"),
    (["eval", "Obar", "sum((0,1),)"], "expected '(', found ')' (at position 10 in 'sum((0,1),)')"),
    (["selfcheck", "--cases", "0"], "selfcheck --cases must be at least 1, not 0"),
    (["selfcheck", "--cases", "-3"], "selfcheck --cases must be at least 1, not -3"),
    (["eval", "mixed(N0; 3..1; default:Rc)", "0"],
     "empty level range (at position 10 in 'mixed(N0; 3..1; default:Rc)')"),
    (["prob", "bayes", "--builtin", "dartboard", "--given", "hline"], "prob bayes needs --partition and --given"),
    (["eval", "Obar", "sum(repeat((0,1)), levelramp(0,1,1))"],
     "only one generator per series (at position 19 in 'sum(repeat((0,1)), levelramp(0,1,1))')"),
    (["eval", "P", "(0,1)+cmp((0,1),(0,1))"],
     "cmp(...) only makes sense at the top level (at position 6 in '(0,1)+cmp((0,1),(0,1))')"),
    (["eval", "mixed(Rc; 0..1; default:Rc)", "0"],
     "mixed base must be N0 or Z (at position 6 in 'mixed(Rc; 0..1; default:Rc)')"),
])
def test_malformed_arguments_are_parse_errors(capsys, argv, message):
    assert _run(capsys, argv) == (2, f"parse error: {message}\n")


STRETCH_TRACK = json.loads((SRC_DIR / "lexiring" / "data" / "track_stretch.json").read_text())
SEMIGROUP_SCENE = {"structure": r"N0 \/ Rc", "atoms": [{"id": "a", "value": "(1,1)"}, {"id": "b", "value": "(0,2)"}]}


@pytest.mark.parametrize("argv, doc, code, out, err", [
    (["measure", "validate", "--builtin", "dartboard"], None, 0,
     "ok: 9 atoms, events ['Q1', 'Q2', 'Q3', 'Q4', 'cross', 'hline', 'upper', 'upper_vray']\n", ""),
    (["--format", "json", "measure", "validate", "--builtin", "dartboard"], None, 0,
     json.dumps({"atoms": 9, "capabilities": {"hasLubProperty": False, "hasTop": False, "isGroup": False,
                                              "isSemifield": True, "isSemigroup": True, "isSemiring": True,
                                              "isSummable": False},
                 "events": ["Q1", "Q2", "Q3", "Q4", "cross", "hline", "upper", "upper_vray"], "ok": True},
                sort_keys=True) + "\n", ""),
    (["weights", "check", "FILE"], {**STRETCH_TRACK, "weights": {**STRETCH_TRACK["weights"], "a": "(5,1)"}}, 1,
     "FAIL: switch 0: (5,1) != (0,2)\n", ""),
    (["eval", "double(Rc)", "1+-2"], None, 1, "",
     "error: signed addition needs (integer level, rational residue) magnitudes\n"),
    (["measure", "height", "FILE"], SEMIGROUP_SCENE, 1, "", "error: measure values do not have an integer top level\n"),
    (["measure", "align", "FILE"], SEMIGROUP_SCENE, 1, "", "error: measure values do not have an integer top level\n"),
    (["prob", "validate", "FILE"], {"structure": "Pn(2)", "atoms": [{"id": "a", "value": "(0,(0,1))"},
                                                                    {"id": "b", "value": "(0,(0,1))"}]}, 1,
     "FAIL: level vector (0, 0) has mass 2 > 1 level masses {'(0, 0)': '2'}\n", ""),
    # a 0 that a '/' follows is a rational, so a signed magnitude, not the zero
    (["eval", "double(Rc)", "0/1"], None, 1, "", "error: signed magnitude must be nonzero\n"),
    (["eval", "double(Nbar0)", "0/1"], None, 1, "", "error: signed magnitude must be nonzero\n"),
    (["eval", r"N0 /\ (Rc /\ Rc)", "(1,0/1,2)"], None, 0, "(1,(0,2))\n", ""),
    # an expression starting with '-' follows '--', else argparse reads it as an option
    (["eval", "double(O)", "--", "-(1,1/4)"], None, 0, "-(1,1/4)\n", ""),
])
def test_front_door_outcomes(tmp_path, capsys, argv, doc, code, out, err):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    assert main([str(f) if a == "FILE" else a for a in argv]) == code
    assert capsys.readouterr() == (out, err)


def test_sup_of_a_top_residue_ramp(capsys):
    assert main(["eval", r"N0 /\ Sbar", "sup(resramp(0,top))"]) == 0
    assert main(["eval", r"N0 /\ Sbar", "sum(resramp(0,top))"]) == 0
    assert capsys.readouterr().out == "(0,top)\n(0,top)\n"


def test_a_top_head_term_bounds_any_tail(capsys):
    # the tail's levels are not integers, but top already bounds every term
    assert main(["eval", r"Rc b/\ N0", "sup(top, repeat((1,1)))"]) == 0
    assert main(["eval", r"Rc b/\ N0", "sum(top, repeat((1,1)))"]) == 0
    assert capsys.readouterr().out == "top\ntop\n"


@pytest.mark.parametrize("struct, expr, out", [
    (r"N0 /\ ((N0 \/ N0) /\ N0)", "sup(resramp(0,((0,0),1)))", "(0,((0,1),1))"),
    # the level is (0,0), the zero of Nbar0 \/ Nbar0, which prints as 0
    (r"N0 /\ ((Nbar0 \/ Nbar0) /\ N0)", "sup(resramp(0,((inf,inf),1)))", "(1,(0,1))"),
    (r"N0 /\ mixed(N0; 0..2; default:N0)", "sup(resramp(0,(0,1)))", "(0,(1,1))"),
])
def test_sup_steps_up_composite_and_mixed_levels(capsys, struct, expr, out):
    assert main(["eval", struct, expr]) == 0
    assert capsys.readouterr().out == out + "\n"


def test_nesting_depth_is_limited(capsys):
    from lexiring.descriptors import MAX_DEPTH

    code, err = _run(capsys, ["eval", "Sn(99999)", "0"])
    assert code == 2 and f"nesting depth must be between 1 and {MAX_DEPTH}" in err
    code, err = _run(capsys, ["eval", "P", "(" * 3000 + "(0,1)" + ")" * 3000])
    assert code == 2 and f"parentheses nest deeper than {MAX_DEPTH} levels" in err
    code, err = _run(capsys, ["eval", "(" * (MAX_DEPTH + 1) + "P" + ")" * (MAX_DEPTH + 1), "0"])
    assert code == 2 and f"parentheses nest deeper than {MAX_DEPTH} levels" in err
    # at the limit everything still reads, on the deepest structure the grammar admits
    deepest = f"Sn({MAX_DEPTH})"
    for _ in range(MAX_DEPTH - 1):
        deepest = f"({deepest} b/\\ Rc)"
    assert main(["eval", deepest, "top+0"]) == 0
    assert main(["eval", "P", "(" * (MAX_DEPTH - 1) + "(0,1)" + ")" * (MAX_DEPTH - 1)]) == 0
    assert main(["eval", f"Sn({MAX_DEPTH})", "(0," * MAX_DEPTH + "1" + ")" * MAX_DEPTH]) == 0
    assert capsys.readouterr().out.split("\n")[:2] == ["top", "(0,1)"]
    # many parentheses in all, none deep: a flat 200-literal product evaluates
    flat = "*".join(["(1,2/3)"] * 200)
    assert main(["eval", "P", flat]) == 0
    assert capsys.readouterr().out == f"(200,{2 ** 200}/{3 ** 200})\n"
    # a nest one too deep after 100 flat literals is reported at its 65th '(', 100 * 8 + 64 characters in
    code, err = _run(capsys, ["eval", "P", "*".join(["(1,2/3)"] * 100) + "*" + "(" * (MAX_DEPTH + 1) + "(0,1)"
                              + ")" * (MAX_DEPTH + 1)])
    assert code == 2 and f"parentheses nest deeper than {MAX_DEPTH} levels (at position 864 in " in err


LONG = "7" * (D.MAX_DIGITS + 700)


@pytest.mark.parametrize("argv, doc, text", [
    (["eval", "Rc", LONG], None, LONG),  # a base's reader
    (["eval", "Rc", "1+" + "7" * (D.MAX_DIGITS + 1)], None, "1+" + "7" * (D.MAX_DIGITS + 1)),
    (["eval", "P", f"({LONG},1)"], None, f"({LONG},1)"),  # the fused pair reader
    (["eval", f"Pn({LONG})", "0"], None, f"Pn({LONG})"),  # TokenStream.int
    (["eval", f"mixed(Z; 0..{LONG}; default:Rc)", "0"], None, f"mixed(Z; 0..{LONG}; default:Rc)"),
    (["measure", "validate", "FILE"], {"structure": "P", "atoms": [{"id": "a", "value": f"(0,{LONG})"}]},
     f"(0,{LONG})"),  # a scene atom value
])
def test_a_number_longer_than_max_digits_is_a_parse_error(tmp_path, capsys, argv, doc, text):
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if a == "FILE" else a for a in argv]
    at = re.search("7{%d}" % (D.MAX_DIGITS + 1), text).start()
    limit = sys.get_int_max_str_digits()
    assert _run(capsys, argv) == (2, f"parse error: a number longer than {D.MAX_DIGITS} digits "
                                     f"(at position {at} in {text!r})\n")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
def test_results_print_at_any_length(capsys, fmt):
    import decimal

    longest = "7" * D.MAX_DIGITS
    factor = "7" * 4000
    product = str(decimal.Context(prec=9000).multiply(decimal.Decimal(factor), decimal.Decimal(factor)))
    limit = sys.get_int_max_str_digits()
    assert limit and len(product) > limit  # the interpreter could not print it unaided
    for expr, want in ((longest, longest), (f"{factor}*{factor}", product)):
        assert main(fmt + ["eval", "Rc", expr]) == 0
        out = capsys.readouterr().out
        assert out == (json.dumps({"result": want}) if fmt else want) + "\n"
        assert sys.get_int_max_str_digits() == limit


def test_the_library_keeps_the_interpreters_int_to_str_limit():
    # outside main, printing a result longer than the limit is the interpreter's ValueError, the one library
    # failure that is not a LexiringError; a caller that lifts the limit gets the exact result
    import decimal

    factor = "7" * 4000
    product = str(decimal.Context(prec=9000).multiply(decimal.Decimal(factor), decimal.Decimal(factor)))
    limit = sys.get_int_max_str_digits()
    assert limit and len(product) > limit
    too_long = r"Exceeds the limit \(\d+ digits\) for integer string conversion"
    with pytest.raises(ValueError, match=too_long):
        eval_expression("Rc", f"{factor}*{factor}")
    with pytest.raises(ValueError, match=too_long):
        format_value(parse_struct("N0"), Scalar(int(factor) ** 2))
    sys.set_int_max_str_digits(0)
    try:
        assert eval_expression("Rc", f"{factor}*{factor}") == product
        assert format_value(parse_struct("N0"), Scalar(int(factor) ** 2)) == product
    finally:
        sys.set_int_max_str_digits(limit)
    assert sys.get_int_max_str_digits() == limit


class _CountingLexer:
    """The lexer's pattern, counting its scans for character positions."""

    def __init__(self, pattern):
        self.pattern, self.scans = pattern, 0

    def findall(self, text):
        return self.pattern.findall(text)

    def finditer(self, text):
        self.scans += 1
        return self.pattern.finditer(text)


@pytest.mark.parametrize("tail, error", [
    ("", None),
    ("+((0,x))", "expected a rational or 'inf', found 'x'"),
    ("+((0,1)", "unexpected end of input"),
])
def test_error_positions_are_found_in_one_scan_per_text(monkeypatch, tail, error):
    # each ((0,1)) is first tried as a literal of P, whose error is thrown away
    lexer = _CountingLexer(D._TOKEN)
    monkeypatch.setattr(D, "_TOKEN", lexer)
    text = "+".join(["((0,1))"] * 4000) + tail
    got = _outcome(eval_expression, "P", text)
    assert lexer.scans <= 1
    if error is None:
        assert got == ("value", "(0,4000)")
    else:
        at = text.find("x") if "x" in tail else len(text)
        assert got == ("ParseError", f"{error} (at position {at} in {text!r})")


class _CountingText(str):
    """A text that counts how often repr() formats it."""

    reprs = 0

    def __repr__(self):
        self.reprs += 1
        return super().__repr__()


def test_parse_errors_format_their_text_only_when_read():
    # each ((0,1)) is first tried as a literal of P, whose error is thrown away unread
    text = _CountingText("+".join(["((0,1))"] * 1000))
    assert eval_expression("P", text) == "(0,1000)"
    assert text.reprs == 0
    text = _CountingText(text + "+((0,x))")
    with pytest.raises(ParseError) as info:
        eval_expression("P", text)
    assert text.reprs == 0
    assert str(info.value) == f"expected a rational or 'inf', found 'x' (at position {len(text) - 3} in {str(text)!r})"
    assert text.reprs == 1


def test_nesting_limit_is_found_where_a_walk_over_the_text_finds_it():
    # a parenthesis is always a token of its own, also between non-ASCII text and lone surrogates
    rng, outcomes = random.Random(61), collections.Counter()
    for _ in range(300):
        text = "".join(rng.choice("((()x é\udcff") for _ in range(rng.randrange(60, 400)))
        depths = itertools.accumulate(1 if c == "(" else -1 if c == ")" else 0 for c in text)
        at = next((i for i, depth in enumerate(depths) if depth > D.MAX_DEPTH), None)
        try:
            TokenStream(text)
            got = None
        except ParseError as exc:
            assert str(exc).startswith(f"parentheses nest deeper than {D.MAX_DEPTH} levels (at position {exc.pos} ")
            got = exc.pos
        assert got == at, text
        outcomes[at is None] += 1
    assert min(outcomes.values()) >= 30, outcomes


def test_selfcheck_deterministic(capsys):
    assert main(["--format", "json", "selfcheck", "--seed", "7", "--cases", "25"]) == 0
    first = capsys.readouterr().out
    assert main(["--format", "json", "selfcheck", "--seed", "7", "--cases", "25"]) == 0
    assert capsys.readouterr().out == first
    assert main(["--format", "json", "selfcheck", "--seed", "8", "--cases", "25"]) == 0
    capsys.readouterr()


def test_selfcheck_minimal(capsys):
    assert main(["selfcheck", "--seed", "0", "--cases", "1"]) == 0
    capsys.readouterr()


def test_selfcheck_catches_broken_addition(monkeypatch, capsys):
    import lexiring.ops as ops_mod
    from lexiring.values import ZERO

    real_add = ops_mod.add

    def broken_add(d, x, y):
        out = real_add(d, x, y)
        if x is not ZERO and y is not ZERO and x == y:
            return ZERO  # wrong on equal operands
        return out

    monkeypatch.setattr(ops_mod, "add", broken_add)
    code = main(["selfcheck", "--seed", "3", "--cases", "400"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    # the failing law is named
    assert any(
        law in out for law in ("add_identity", "add_commutative", "add_associative", "add_monotone")
    )


def test_a_raising_case_fails_its_own_law(monkeypatch):
    import lexiring.measure as measure_mod
    from lexiring.errors import DomainError
    from lexiring.laws import run_selfcheck

    def planted(m, k):
        raise DomainError("planted")

    monkeypatch.setattr(measure_mod, "shift_levels", planted)
    ok, results = run_selfcheck(0, 20)
    assert not ok
    assert [r.line() for r in results if r.suite == "measure"] == [
        "PASS measure: slice_recover_roundtrip (cases=2)",
        "PASS measure: finite_additivity (cases=2)",
        "FAIL measure: align_and_shift (cases=1) -- raised DomainError: planted",
    ]


# ---------------------------------------------------------------------------
# expressions fold through Kernel.sum and Kernel.prod
# ---------------------------------------------------------------------------

FOLD_STRUCTURES = ["P", "O", "S", "Obar", "Sbar", "Pn(2)", r"S /\ Rc", r"Obar b/\ Rc", "Ro", "Nbar0"]


def _random_expr(rng, d, depth):
    """(expression text, its value) with the value folded pairwise by ops.add and ops.mul, as the oracle."""
    if depth == 0 or rng.random() < 0.3:
        text = format_value(d, random_value(rng, d))
        return text, parse_value(d, text)
    kind = rng.choice(("+", "*", "inv") if facts(d).semifield else ("+", "*"))
    if kind == "inv":
        text, v = _random_expr(rng, d, depth - 1)
        if is_zero(d, v):
            return text, v
        return f"inv({text})", ops.inv(d, v)
    parts = [_random_expr(rng, d, depth - 1) for _ in range(rng.randint(2, 5))]
    v = parts[0][1]
    for _, w in parts[1:]:
        v = ops.add(d, v, w) if kind == "+" else ops.mul(d, v, w)
    if kind == "+":
        return "(" + " + ".join(t for t, _ in parts) + ")", v
    return "*".join(t for t, _ in parts), v


@pytest.mark.parametrize("text", FOLD_STRUCTURES)
def test_expressions_equal_the_pairwise_fold(text):
    d = parse_struct(text)
    rng = random.Random(f"fold/{text}")
    for _ in range(150):
        expr, v = _random_expr(rng, d, 3)
        assert eval_expression(text, expr) == format_value(d, v), expr


@pytest.mark.parametrize("struct, expr, code, err", [
    ("mixed(Z; 0..1; 0:Rc)", "(0,1)*(0,2)", 1, "error: mixed(Z; 0..1; 0:Rc) is not a semiring; multiplication undefined"),
    ("mixed(Z; 0..1; 0:Rc)", "(0,1)*(0,", 2, "parse error: unexpected end of input (at position 9 in '(0,1)*(0,')"),
    ("mixed(Z; 0..1; 0:Rc)", "(0,1)*(0,2)*(0,", 1,
     "error: mixed(Z; 0..1; 0:Rc) is not a semiring; multiplication undefined"),
])
def test_a_product_names_a_non_semiring_after_its_second_factor(capsys, struct, expr, code, err):
    assert _run(capsys, ["eval", struct, expr]) == (code, err + "\n")


def _fresh_process(argv):
    """(exit code, stdout, stderr) of one CLI call in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR), "COLUMNS": "80"}
    proc = subprocess.run([sys.executable, "-m", "lexiring", *argv], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_a_sequence_of_calls(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    calls = [
        ["eval", "P"],  # usage error
        ["eval", "P", "(0,1/2)*(1,3)"],
        ["--format", "json", "eval", "O", "(0,1)+(0,2)"],
        ["eval", "O", "(0,1)+(0,2)"],
        ["--help"],
        ["prob", "cond", "--builtin", "dartboard", "--event", "cross"],  # missing --given
        ["prob", "validate", "--builtin", "nope"],
    ]
    for argv in calls:
        code = main(argv)
        got = capsys.readouterr()
        assert (code, got.out, got.err) == _fresh_process(argv), argv


def test_importing_the_cli_loads_no_subcommand_modules():
    lazy = ["laws", "measure", "prob", "integrate", "scenes", "tree", "weights"]
    check = ("import sys, lexiring.cli; "
             f"loaded = [m for m in {lazy!r} if 'lexiring.' + m in sys.modules]; "
             "assert not loaded, loaded")
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# a seeded mutation fuzz of command lines and documents
# ---------------------------------------------------------------------------

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
FUZZ_ALPHABET = "()0123456789,;:./\\-+* abcdefilmnoprstuvxNZRSOP_"
FUZZ_PLACEHOLDERS = {"SCENE.json": "scene", "TREE.json": "tree", "TRACK.json": "track"}
FUZZ_DOCS = {
    "scene": list(BUILTIN_SCENES.values()),
    "tree": [{"structure": "O", "nodes": ["x", "y", "z", "w"], "edges": [
        {"a": "x", "b": "y", "value": "(0,1)"}, {"a": "y", "b": "z", "value": "(1,1/2)"},
        {"a": "y", "b": "w", "value": "(-1,inf)"}]}],
    "track": [json.loads(p.read_text()) for p in sorted((SRC_DIR / "lexiring" / "data").glob("track_*.json"))],
    "function": [{"kind": "real", "values": {"q1": "6/8", "q2": "inf"}},
                 {"kind": "lvalued", "structure": "P", "values": {"q1": "(0,3)", "q2": "(-1,1/2)"}},
                 {"kind": "signed", "structure": "double(P)", "values": {"q1": "-(0,1)", "q2": "(0,2)"}}],
}
# commands whose output is a report: a failed check prints FAIL on stdout and exits 1 with nothing on stderr
FUZZ_REPORTS = {("weights", "check"), ("prob", "validate"), ("tree", "verify")}


def _readme_command_lines():
    """Each `lexiring ...` line of the README's shell blocks but selfcheck, as argv with its placeholders."""
    import shlex

    lines = []
    for line in README.read_text().splitlines():
        if line.startswith("lexiring ") and not line.startswith("lexiring ["):
            argv = shlex.split(line, comments=True)[1:]
            if argv[0] != "selfcheck":
                lines.append(argv)
    return lines


def test_readme_command_lines_do_not_depend_on_the_hash_seed(tmp_path):
    from test_prob import _random_p_scene

    # every README command line over one document per placeholder, and Bayes on a P scene of 200 atoms and 8 cells
    files = {}
    for placeholder, kind in FUZZ_PLACEHOLDERS.items():
        files[placeholder] = tmp_path / f"{kind}.json"
        files[placeholder].write_text(json.dumps(FUZZ_DOCS[kind][0]))
    rng = random.Random(31)
    events = {f"C{j}": [f"a{i}" for i in range(j, 200, 8)] for j in range(8)}
    events["B"] = [f"a{i}" for i in range(200) if rng.random() < 0.4]
    scene = tmp_path / "bayes.json"
    scene.write_text(json.dumps(scenes.scene_to_dict(_random_p_scene(rng, 200, 0, events))))
    lines = [[str(files.get(a, a)) for a in argv] for argv in _readme_command_lines()]
    lines.append(["prob", "bayes", str(scene), "--partition", ",".join(f"C{j}" for j in range(8)), "--given", "B"])
    calls = [fmt + argv for fmt in ([], ["--format", "json"]) for argv in lines]
    # one process per hash seed runs every call; each call's exit code, stdout and stderr become one JSON line
    script = ("import contextlib, io, json, sys\n"
              "from lexiring.cli import main\n"
              "for argv in json.load(sys.stdin):\n"
              "    out, err = io.StringIO(), io.StringIO()\n"
              "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
              "        code = main(argv)\n"
              "    print(json.dumps([code, out.getvalue(), err.getvalue()]))\n")
    runs = []
    for seed in (0, 1):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(SRC_DIR)}
        proc = subprocess.run([sys.executable, "-c", script], input=json.dumps(calls).encode(), env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    results = [json.loads(line) for line in runs[0].splitlines()]
    assert len(results) == len(calls) == 2 * 21
    assert all(code == 0 and err == "" for code, _, err in results), [(c, r) for c, r in zip(calls, results) if r[0]]


def _mutate_text(rng, text):
    """text with one or two characters of the alphabet inserted, deleted or replaced."""
    chars = list(text)
    for _ in range(rng.randint(1, 2)):
        op, i = rng.randrange(3), rng.randrange(len(chars) + 1)
        if op == 0 or not chars:
            chars.insert(i, rng.choice(FUZZ_ALPHABET))
        elif op == 1:
            del chars[min(i, len(chars) - 1)]
        else:
            chars[min(i, len(chars) - 1)] = rng.choice(FUZZ_ALPHABET)
    return "".join(chars)


def _mutate_doc(rng, doc):
    """A copy of doc with one key deleted, one value's JSON kind changed, or one string (key or value) mutated."""
    doc = json.loads(json.dumps(doc))
    slots = []

    def walk(node):
        for key in (list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()):
            slots.append((node, key))
            walk(node[key])
    walk(doc)
    node, key = rng.choice(slots)
    value, op = node[key], rng.randrange(4)
    if op == 0:
        del node[key]
    elif op == 1 or not isinstance(value, str) and op == 2:
        node[key] = rng.choice([v for v in (0, 2.5, None, True, "0", [], {}, [value], {"value": value})
                                if type(v) is not type(value)])
    elif op == 2:
        node[key] = _mutate_text(rng, value)
    elif isinstance(node, dict):
        node[_mutate_text(rng, key)] = node.pop(key)
    return doc


def _check_exit(capsys, argv):
    """Run main on argv; the exit code is 0, 1 or 2 and a failure says so in one stderr line or a FAIL report."""
    try:
        code = main(argv)
    except Exception as exc:  # any exception that escapes main is a finding
        pytest.fail(f"{argv!r} raised {exc!r}")
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), argv
    if code == 0:
        assert err == "", argv
    elif not err.startswith("usage:"):
        args = _build_parser().parse_args(argv)
        if err == "":
            assert code == 1 and (args.command, getattr(args, "action", None)) in FUZZ_REPORTS and out, argv
        else:
            assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    return code, out


def test_mutated_command_lines_and_documents_end_in_a_result_or_one_error_line(tmp_path, capsys):
    rng = random.Random(18)
    readme, files, counts = _readme_command_lines(), {}, collections.Counter()
    on_documents = [argv for argv in readme if "--builtin" in argv or set(argv) & set(FUZZ_PLACEHOLDERS)]
    evals = [argv for argv in readme if argv[0] == "eval"]  # drawn more often, for more values to read back
    for kind, docs in FUZZ_DOCS.items():
        if kind != "function":
            files[kind] = tmp_path / f"{kind}.json"
            files[kind].write_text(json.dumps(docs[0]))
    doc_file = tmp_path / "doc.json"
    dartboard = scenes.builtin_scene("dartboard")
    for case in range(2000):
        argv = list(rng.choice(on_documents if case % 2 else evals if rng.random() < 0.5 else readme))
        fmt = ["--format", "json"] if rng.random() < 0.3 else []
        if case % 2 == 0:  # a mutated command line over the unmutated documents
            # an eval line's expression is mutated most often: what evaluates is printed and read back
            i = rng.choice([i for i, a in enumerate(argv) if a not in FUZZ_PLACEHOLDERS] + [2] * 4 * (argv[0] == "eval"))
            argv[i] = _mutate_text(rng, argv[i])
            argv = fmt + [str(files[FUZZ_PLACEHOLDERS[a]]) if a in FUZZ_PLACEHOLDERS else a for a in argv]
        else:  # an unmutated command line over a mutated document
            kind = next((FUZZ_PLACEHOLDERS[a] for a in argv if a in FUZZ_PLACEHOLDERS), "scene")
            doc = _mutate_doc(rng, rng.choice(FUZZ_DOCS["function" if case % 10 == 1 else kind]))
            if case % 10 == 1:  # function documents have no command
                try:
                    scenes.function_from_dict(doc, dartboard)
                    counts["function ok"] += 1
                except LexiringError:
                    counts["function refused"] += 1
                continue
            doc_file.write_text(json.dumps(doc))
            if "--builtin" in argv:  # a builtin scene's command runs on the mutated scene document
                at = argv.index("--builtin")
                argv[at:at + 2] = ["SCENE.json"]
            argv = fmt + [str(doc_file) if a in FUZZ_PLACEHOLDERS else a for a in argv]
        code, out = _check_exit(capsys, argv)
        counts[code] += 1
        if code == 0 and argv[len(fmt)] == "eval":
            result = json.loads(out)["result"] if fmt else out[:-1]
            if result not in ("LT", "EQ", "GT"):
                structure = _build_parser().parse_args(argv).structure
                assert eval_expression(structure, result) == result, argv
                counts["eval round trip"] += 1
    assert min(counts[0], counts[1], counts[2], counts["function refused"], counts["eval round trip"]) >= 20, counts
    assert counts["function ok"] >= 3, counts
