"""Golden-file CLI tests, exit codes, and the selfcheck harness."""

import collections
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from lexiring import descriptors as D
from lexiring import ops
from lexiring.cli import _ExprEval, eval_expression, main
from lexiring.descriptors import TokenStream, facts, is_digits, parse_struct
from lexiring.errors import CapabilityError, DomainError, LexiringError, ShapeError
from lexiring.kernel import kernel_of
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
            if self.peek() == "0" and sign == 1:
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
            if self.peek() == "0" and self.toks[self.pos + 1:self.pos + 2] != [","]:
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
