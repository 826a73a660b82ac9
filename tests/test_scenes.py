"""JSON interfaces: scene, function, tree, and track files."""

import json
import random
import re

import pytest

from lexiring.descriptors import parse_struct
from lexiring.errors import DomainError, ParseError, ShapeError
from lexiring.integrate import integrate_lvalued, integrate_real, integrate_signed
from lexiring.scenes import (
    BUILTIN_TRACKS,
    builtin_scene,
    function_from_dict,
    load_function,
    load_scene,
    load_track,
    load_tree,
    scene_from_dict,
    track_from_dict,
    tree_from_dict,
)
from lexiring.values import ZERO, parse_value
from lexiring.xreal import XReal


def pv(struct, text):
    return parse_value(parse_struct(struct), text)


def test_scene_from_dict_and_file(tmp_path):
    doc = {
        "structure": "O",
        "atoms": [{"id": "a", "value": "(0,1)"}, {"id": "b", "value": "0"}],
        "events": {"A": ["a"]},
    }
    m = scene_from_dict(doc)
    assert m.value(m.space.event("A")) == pv("O", "(0,1)")
    assert m.atom_values["b"] is ZERO
    f = tmp_path / "scene.json"
    f.write_text(json.dumps(doc))
    m2 = load_scene(str(f))
    assert m2.atom_values == m.atom_values


def test_scene_rejects_duplicate_atoms():
    doc = {
        "structure": "O",
        "atoms": [{"id": "a", "value": "(0,1)"}, {"id": "a", "value": "(0,2)"}],
    }
    with pytest.raises(DomainError):
        scene_from_dict(doc)


def test_scene_rejects_unknown_event_atoms():
    doc = {
        "structure": "O",
        "atoms": [{"id": "a", "value": "(0,1)"}],
        "events": {"A": ["nope"]},
    }
    with pytest.raises(DomainError):
        scene_from_dict(doc)


def test_function_file_real(tmp_path):
    m = builtin_scene("dartboard")
    doc = {"kind": "real", "values": {a: "1" for a in m.space.atoms}}
    f = tmp_path / "f.json"
    f.write_text(json.dumps(doc))
    fn = load_function(str(f), m)
    assert integrate_real(m, fn, m.space.atoms) == pv("P", "(0,1)")


def test_real_function_values_are_rc_literals():
    m = builtin_scene("dartboard")
    fn = function_from_dict({"kind": "real", "values": {"q1": "6/8", "q2": "inf"}}, m)
    assert integrate_real(m, fn, ["q1"]) == pv("P", "(0,3/16)")
    for text in ("1/0", "-2", "a/b", "1/2/3"):
        with pytest.raises(ParseError):
            function_from_dict({"kind": "real", "values": {"q1": text}}, m)
    with pytest.raises(ShapeError, match="'top' is not an element of Rc"):
        function_from_dict({"kind": "real", "values": {"q1": "top"}}, m)


def test_function_file_lvalued():
    m = builtin_scene("dartboard")
    doc = {
        "kind": "lvalued",
        "structure": "P",
        "values": {a: "(0,1)" for a in m.space.atoms},
    }
    fn = function_from_dict(doc, m)
    assert integrate_lvalued(m, fn, m.space.atoms) == m.total()


def test_function_file_signed():
    m = builtin_scene("dartboard")
    values = {a: "0" for a in m.space.atoms}
    values["q1"] = "(0,2)"
    values["q2"] = "-(0,1/2)"
    doc = {"kind": "signed", "structure": "double(P)", "values": values}
    fn = function_from_dict(doc, m)
    got = integrate_signed(m, fn, m.space.atoms)
    # 2*(1/4) - (1/2)*(1/4) = 3/8 at level 0
    assert got == pv("double(P)", "(0,3/8)")


def test_function_file_bad_kind():
    m = builtin_scene("dartboard")
    with pytest.raises(DomainError):
        function_from_dict({"kind": "wavelet", "values": {}}, m)


def test_function_file_unknown_atom():
    m = builtin_scene("dartboard")
    with pytest.raises(DomainError):
        function_from_dict({"kind": "real", "values": {"bullseye": "1"}}, m)


@pytest.mark.parametrize("doc, message", [
    ({"values": {}}, "missing field kind"),
    ({"kind": "real", "values": ["a"]}, "field values must be an object"),
    ({"kind": "real", "values": {"q1": 1}}, "field values.q1 must be a string"),
    ({"kind": "lvalued", "values": {"q1": "(0,1)"}}, "missing field structure"),
])
def test_function_documents_are_schema_checked(doc, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        function_from_dict(doc, builtin_scene("dartboard"))


def test_tree_file(tmp_path):
    doc = {
        "structure": "S",
        "nodes": ["r", "u", "v"],
        "edges": [
            {"a": "r", "b": "u", "value": "(0,1)"},
            {"a": "r", "b": "v", "value": "(1,1/2)"},
        ],
    }
    f = tmp_path / "t.json"
    f.write_text(json.dumps(doc))
    t = load_tree(str(f))
    from lexiring.tree import distance

    assert distance(t, "u", "v") == pv("S", "(1,1/2)")


def test_equal_literal_texts_share_one_value():
    m = scene_from_dict({"structure": "P", "atoms": [
        {"id": "a", "value": "(0,1/2)"}, {"id": "b", "value": "(0,1/2)"}, {"id": "c", "value": "(0,2/4)"}]})
    vals = m.atom_values
    assert vals["a"] is vals["b"]
    assert vals["c"] is not vals["a"] and vals["c"] == vals["a"]  # parsed separately, equal
    t = tree_from_dict({"structure": "O", "nodes": ["r", "u", "v", "w"], "edges": [
        {"a": "r", "b": "u", "value": "(0,1/2)"}, {"a": "r", "b": "v", "value": "(0,1/2)"},
        {"a": "v", "b": "w", "value": "(0,2/4)"}]})
    assert t.up["u"] is t.up["v"]
    assert t.up["w"] is not t.up["u"] and t.up["w"] == t.up["u"]
    _, w, c = track_from_dict({"structure": "S", "sectors": ["s", "t"], "switches": [],
                               "weights": {"s": "(0,1)", "t": "(0,1)"},
                               "crossings": [{"sector": "s", "end": "0", "multiplier": "(0,1)"}]})
    assert w.weights["s"] is w.weights["t"] is c.crossings[("s", "0")]
    fn = function_from_dict({"kind": "lvalued", "structure": "P", "values": {"q1": "(0,3)", "q2": "(0,3)"}},
                            builtin_scene("dartboard"))
    assert fn.values["q1"] is fn.values["q2"]


def test_a_benchmark_shaped_tree_holds_one_value_per_distinct_text(monkeypatch):
    import lexiring.tree as tree

    rng = random.Random(1)
    names = [f"n{v}" for v in range(5000)]
    edges = [{"a": names[rng.randrange(v)], "b": names[v],
              "value": f"({rng.choice((1, 0, -1))},{rng.randint(1, 9)}/{rng.randint(1, 4)})"}
             for v in range(1, 5000)]
    assert len({e["value"] for e in edges}) == 108
    checked = []  # LTree's own checks: one per distinct value object, not one per edge
    monkeypatch.setattr(tree, "check_value", lambda d, v: checked.append(v))
    t = tree_from_dict({"structure": "O", "nodes": names, "edges": edges})
    distinct = {id(v) for v in t.up.values()}
    assert len(distinct) <= 108
    assert len(checked) == len(distinct) and {id(v) for v in checked} == distinct


def _dartboard_function(doc):
    return function_from_dict(doc, builtin_scene("dartboard"))


@pytest.mark.parametrize("load, doc, message", [
    (tree_from_dict, {"structure": "O", "nodes": ["a", "b", "c"], "edges": [
        {"a": "a", "b": "b", "value": "(0,1)"}, {"a": "b", "b": "c", "value": "(0,1/0)"}]},
     "bad denominator '0' (at position 5 in '(0,1/0)')"),
    (scene_from_dict, {"structure": "P", "atoms": [{"id": "a", "value": "(0,1)"}, {"id": "b", "value": "(0,x)"}]},
     "expected a rational or 'inf', found 'x' (at position 3 in '(0,x)')"),
    (track_from_dict, {"structure": "S", "sectors": ["s"], "switches": [], "weights": {"s": "(0,1/)"}},
     "bad denominator ')' (at position 5 in '(0,1/)')"),
    (track_from_dict, {"structure": "S", "sectors": ["s"], "switches": [], "weights": {"s": "(0,1)"},
                       "crossings": [{"sector": "s", "end": "0", "multiplier": "(1,"}]},
     "unexpected end of input (at position 3 in '(1,')"),
    (_dartboard_function, {"kind": "real", "values": {"q1": "1", "q2": "1/x"}}, "bad denominator 'x' (at position 2 in '1/x')"),
    (_dartboard_function, {"kind": "signed", "structure": "P", "values": {"q1": "(0,1)", "q2": "(0,1)("}},
     "trailing input '(' (at position 5 in '(0,1)(')"),
    (tree_from_dict, {"structure": "O", "nodes": ["a", "b", "c"], "edges": [
        {"a": "a", "b": "b", "value": "(0,1)"}, {"a": "b", "b": "c", "value": 3}]},
     "field edges[1].value must be a string"),
    (tree_from_dict, {"structure": "O", "nodes": ["a", "b", "c"], "edges": [
        {"a": "a", "b": "b", "value": "(0,1)"}, {"a": "b", "b": "c", "value": ["(0,1)"]}]},
     "field edges[1].value must be a string"),
])
def test_a_bad_document_literal_names_its_text_or_its_path(load, doc, message):
    with pytest.raises(ParseError) as exc:
        load(doc)
    assert str(exc.value) == message


def test_builtin_tracks_load_and_check():
    from lexiring.weights import check_branch_equations

    for name in BUILTIN_TRACKS:
        g, w, c = load_track(name)
        assert check_branch_equations(g, w, c)["ok"], name


def test_builtin_scene_unknown_name():
    with pytest.raises(DomainError):
        builtin_scene("roulette")


def test_scene_to_dict_roundtrip():
    from lexiring.scenes import scene_to_dict

    for name in ("dartboard", "dartboard-depth2"):
        m = builtin_scene(name)
        doc = scene_to_dict(m)
        m2 = scene_from_dict(doc)
        assert m2.desc == m.desc
        assert m2.atom_values == m.atom_values
        assert m2.space.events == m.space.events


def test_struct_text_roundtrip():
    from lexiring.descriptors import struct_text

    for s in (
        "S", "O", "P", "Obar", "Sn(2)", "Pn(3)", r"(N0 \/ N0) /\ Rc",
        "double(O)", "mixed(N0; 0..2; 0:Rc, 1:Rc, 2:Nbar0)", "mixed(Z; ..0; default:Rc)",
    ):
        d = parse_struct(s)
        assert parse_struct(struct_text(d)) == d
