"""Built-in scenes and JSON file loaders.

Scene file:    {"structure": "...", "atoms": [{"id": "...", "value": "..."}],
                "events": {"name": ["atomId", ...]}}
Function file: {"kind": "real|lvalued|signed", "structure": "...",
                "values": {"atomId": "<literal>"}}
Tree file:     {"structure": "...", "nodes": [...],
                "edges": [{"a": "...", "b": "...", "value": "..."}]}
Track file:    {"structure": "...", "sectors": [...],
                "switches": [{"side1": [["sector","end"], ...], "side2": [...]}],
                "weights": {"sector": "<literal>"},
                "crossings": [{"sector": "...", "end": "...", "multiplier": "..."}]}

The built-in dartboard: a unit-area board with a drawn cross.  Area is
seen at level 0, the cross carries one-dimensional length at level -1,
and the depth-2 variant concentrates a third level at the center point.
"""

from __future__ import annotations

import json
import pathlib

from .descriptors import parse_struct, struct_text
from .errors import DomainError, ParseError
from .integrate import SimpleFunction
from .measure import AtomSpace, LMeasure
from .tree import LTree
from .values import format_value, parse_value
from .weights import BranchedGraph, Cocycle, WeightSystem
from .xreal import parse_xreal

DARTBOARD_JSON = {
    "structure": "P",
    "atoms": [
        {"id": "q1", "value": "(0,1/4)"},
        {"id": "q2", "value": "(0,1/4)"},
        {"id": "q3", "value": "(0,1/4)"},
        {"id": "q4", "value": "(0,1/4)"},
        {"id": "rv_up", "value": "(-1,1/4)"},
        {"id": "rv_down", "value": "(-1,1/4)"},
        {"id": "rh_left", "value": "(-1,1/4)"},
        {"id": "rh_right", "value": "(-1,1/4)"},
        {"id": "center", "value": "0"},
    ],
    "events": {
        "cross": ["rv_up", "rv_down", "rh_left", "rh_right", "center"],
        "upper": ["q1", "q2", "rv_up", "rh_left", "rh_right", "center"],
        "upper_vray": ["rv_up"],
        "hline": ["rh_left", "rh_right", "center"],
        "Q1": ["q1", "rv_up", "rh_right", "center"],
        "Q2": ["q2"],
        "Q3": ["q3", "rv_down", "rh_left"],
        "Q4": ["q4"],
    },
}

def _depth2_variant(doc: dict) -> dict:
    out = json.loads(json.dumps(doc))
    for atom in out["atoms"]:
        if atom["id"] == "center":
            atom["value"] = "(-2,1)"
    out["events"]["center_pt"] = ["center"]
    return out


DARTBOARD_DEPTH2_JSON = _depth2_variant(DARTBOARD_JSON)

BUILTIN_SCENES = {
    "dartboard": DARTBOARD_JSON,
    "dartboard-depth2": DARTBOARD_DEPTH2_JSON,
}


_JSON_KINDS = {str: "a string", list: "a list", dict: "an object"}


def _field(obj, key: str, kind, path: str = ""):
    """obj[key], checked to be of the JSON kind given; a one-line ParseError names its JSON path."""
    where = f"{path}.{key}" if path else key
    if not isinstance(obj, dict):
        raise ParseError(f"{path or 'the document'} must be an object")
    if key not in obj:
        raise ParseError(f"missing field {where}")
    if not isinstance(obj[key], kind):
        raise ParseError(f"field {where} must be {_JSON_KINDS[kind]}")
    return obj[key]


def scene_from_dict(doc: dict) -> LMeasure:
    desc = parse_struct(_field(doc, "structure", str))
    atom_docs = _field(doc, "atoms", list)
    events = _field(doc, "events", dict) if "events" in doc else {}
    try:
        ids = [a["id"] for a in atom_docs]
        texts = [a["value"] for a in atom_docs]
    except (KeyError, TypeError):
        ids = texts = None
    if ids is None or (set(map(type, ids)) | set(map(type, texts))) - {str}:
        for i, a in enumerate(atom_docs):  # name the first fault
            _field(a, "id", str, f"atoms[{i}]")
            _field(a, "value", str, f"atoms[{i}]")
    space = AtomSpace(ids, events)
    return LMeasure(desc, space, {a: parse_value(desc, t) for a, t in zip(ids, texts)})


def scene_to_dict(m: LMeasure) -> dict:
    """A scene document that loads back to an equal measure."""
    return {
        "structure": struct_text(m.desc),
        "atoms": [
            {"id": a, "value": format_value(m.desc, m.atom_values[a])} for a in m.space.atoms
        ],
        "events": {name: sorted(ev) for name, ev in m.space.events.items()},
    }


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8; arrays nested too deep
        raise ParseError(f"cannot read {str(path)!r}: {getattr(exc, 'strerror', None) or exc}") from None


def load_scene(path_or_builtin: str) -> LMeasure:
    if path_or_builtin in BUILTIN_SCENES:
        return scene_from_dict(BUILTIN_SCENES[path_or_builtin])
    return scene_from_dict(_read_json(path_or_builtin))


def builtin_scene(name: str) -> LMeasure:
    if name not in BUILTIN_SCENES:
        raise DomainError(f"no builtin scene {name!r}; have {sorted(BUILTIN_SCENES)}")
    return scene_from_dict(BUILTIN_SCENES[name])


def function_from_dict(doc: dict, measure: LMeasure) -> SimpleFunction:
    kind = doc["kind"]
    unknown = set(doc["values"]) - set(measure.space.atoms)
    if unknown:
        raise DomainError(f"function file mentions unknown atoms {sorted(unknown)}")
    if kind == "real":
        values = {a: parse_xreal(t) for a, t in doc["values"].items()}
        return SimpleFunction.real(values)
    if kind not in ("lvalued", "signed"):
        raise DomainError(f"unknown function kind {kind!r}")
    desc = parse_struct(doc["structure"])
    values = {a: parse_value(desc, t) for a, t in doc["values"].items()}
    if kind == "lvalued":
        return SimpleFunction.lvalued(desc, values)
    return SimpleFunction.signed(desc, values)


def load_function(path: str, measure: LMeasure) -> SimpleFunction:
    return function_from_dict(_read_json(path), measure)


def tree_from_dict(doc: dict) -> LTree:
    desc = parse_struct(doc["structure"])
    edges = [(e["a"], e["b"], parse_value(desc, e["value"])) for e in doc["edges"]]
    return LTree(desc, doc["nodes"], edges)


def load_tree(path: str) -> LTree:
    return tree_from_dict(_read_json(path))


TRACK_DIR = pathlib.Path(__file__).parent / "data"

BUILTIN_TRACKS = {
    "stretch": TRACK_DIR / "track_stretch.json",
    "levelshift": TRACK_DIR / "track_levelshift.json",
    "two-level-shifts": TRACK_DIR / "track_two_level_shifts.json",
}


def track_from_dict(doc: dict):
    desc = parse_struct(doc["structure"])
    switches = [
        ([tuple(e) for e in sw["side1"]], [tuple(e) for e in sw["side2"]])
        for sw in doc["switches"]
    ]
    graph = BranchedGraph(doc["sectors"], switches)
    weights = WeightSystem(desc, {s: parse_value(desc, t) for s, t in doc["weights"].items()})
    crossings = {
        (c["sector"], c["end"]): parse_value(desc, c["multiplier"])
        for c in doc.get("crossings", [])
    }
    cocycle = Cocycle(desc, crossings)
    return graph, weights, cocycle


def load_track(path_or_builtin: str):
    return track_from_dict(_read_json(BUILTIN_TRACKS.get(path_or_builtin, path_or_builtin)))
