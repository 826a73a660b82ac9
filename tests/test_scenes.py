"""JSON interfaces: scene, function, tree, and track files."""

import json
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
