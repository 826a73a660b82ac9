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

Every field shown is required except ``events`` and ``crossings``, and
``structure`` of a real function.  A missing field, or one of the wrong
JSON kind, is a one-line ``ParseError`` naming its JSON path.  The large
lists (scene atoms, tree edges) are read in one fast pass and walked
field by field only when that pass fails.  The built-in scenes are the
documents of ``dartboard``.

Each loader reads a document's literals through one ``_Literals`` dict,
made for that document and dropped with it: a distinct literal text is
parsed and checked once, and every atom, edge, weight or function value
spelled that way is the same immutable value object.  Documents repeat
their literals (a generated 5,000-node tree has about a hundred distinct
edge texts), so loading costs one dict lookup per repeat and the loaded
object holds one value per distinct text.  Equal values spelled
differently, ``(0,2/4)`` and ``(0,1/2)``, are parsed separately.  A scene
builds its measure from these checked values without checking them again.
"""

from __future__ import annotations

import json
import pathlib
from itertools import chain
from operator import itemgetter

from .dartboard import BUILTIN_SCENES
from .descriptors import RC, parse_struct, struct_text
from .errors import DomainError, ParseError
from .integrate import SimpleFunction
from .measure import AtomSpace, LMeasure
from .tree import LTree
from .values import format_value, parse_value
from .weights import BranchedGraph, Cocycle, WeightSystem


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


def _all_str(*groups) -> bool:
    """Whether every item of every group is a string."""
    return set(map(type, chain(*groups))) <= {str}


def _strings(items: list, where: str) -> list:
    """items, each checked to be a string; a one-line ParseError names the first that is not."""
    for i, item in enumerate(items):
        if not isinstance(item, str):
            raise ParseError(f"field {where}[{i}] must be a string")
    return items


class _Literals(dict):
    """One document's literals under one structure: text -> its value, parsed and checked on first use."""

    def __init__(self, desc):
        self.desc = desc

    def __missing__(self, text):
        v = self[text] = parse_value(self.desc, text)
        return v


def scene_from_dict(doc: dict) -> LMeasure:
    desc = parse_struct(_field(doc, "structure", str))
    atom_docs = _field(doc, "atoms", list)
    events = _field(doc, "events", dict) if "events" in doc else {}
    try:
        ids = [a["id"] for a in atom_docs]
        texts = [a["value"] for a in atom_docs]
    except (KeyError, TypeError):
        ids = texts = None
    if ids is None or not _all_str(ids, texts):
        for i, a in enumerate(atom_docs):  # name the first fault
            _field(a, "id", str, f"atoms[{i}]")
            _field(a, "value", str, f"atoms[{i}]")
    space, read = AtomSpace(ids, events), _Literals(desc)
    return LMeasure._built(desc, space, {a: read[t] for a, t in zip(ids, texts)})


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


def load_scene(path: str) -> LMeasure:
    """The scene document in the file at path, even one named like a built-in scene."""
    return scene_from_dict(_read_json(path))


def builtin_scene(name: str) -> LMeasure:
    if name not in BUILTIN_SCENES:
        raise DomainError(f"no builtin scene {name!r}; have {sorted(BUILTIN_SCENES)}")
    return scene_from_dict(BUILTIN_SCENES[name])


def function_from_dict(doc: dict, measure: LMeasure) -> SimpleFunction:
    kind = _field(doc, "kind", str)
    texts = _field(doc, "values", dict)
    for a in texts:
        _field(texts, a, str, "values")
    unknown = set(texts) - set(measure.space.atoms)
    if unknown:
        raise DomainError(f"function file mentions unknown atoms {sorted(unknown)}")
    if kind == "real":
        read = _Literals(RC)
        return SimpleFunction.real({a: read[t].x for a, t in texts.items()})
    if kind not in ("lvalued", "signed"):
        raise DomainError(f"unknown function kind {kind!r}")
    desc = parse_struct(_field(doc, "structure", str))
    read = _Literals(desc)
    values = {a: read[t] for a, t in texts.items()}
    if kind == "lvalued":
        return SimpleFunction.lvalued(desc, values)
    return SimpleFunction.signed(desc, values)


def load_function(path: str, measure: LMeasure) -> SimpleFunction:
    return function_from_dict(_read_json(path), measure)


def tree_from_dict(doc: dict) -> LTree:
    desc = parse_struct(_field(doc, "structure", str))
    nodes, edge_docs, read = _field(doc, "nodes", list), _field(doc, "edges", list), _Literals(desc)
    try:  # a value that is not a string raises TypeError, in the lookup or in parse_value
        edges = [(e["a"], e["b"], read[e["value"]]) for e in edge_docs]
    except (KeyError, TypeError):
        edges = None
    if edges is None or not _all_str(nodes, map(itemgetter(0), edges), map(itemgetter(1), edges)):
        _strings(nodes, "nodes")
        for i, e in enumerate(edge_docs):  # name the first fault
            for key in ("a", "b", "value"):
                _field(e, key, str, f"edges[{i}]")
    return LTree(desc, nodes, edges)


def load_tree(path: str) -> LTree:
    return tree_from_dict(_read_json(path))


TRACK_DIR = pathlib.Path(__file__).parent / "data"

BUILTIN_TRACKS = {
    "stretch": TRACK_DIR / "track_stretch.json",
    "levelshift": TRACK_DIR / "track_levelshift.json",
    "two-level-shifts": TRACK_DIR / "track_two_level_shifts.json",
}


def _switch_side(switch, key: str, where: str) -> list:
    """One side of a switch: a list of [sector, end] string pairs, as tuples."""
    ends = _field(switch, key, list, where)
    for j, e in enumerate(ends):
        if not (isinstance(e, list) and len(e) == 2 and _all_str(e)):
            raise ParseError(f"field {where}.{key}[{j}] must be a [sector, end] pair of strings")
    return [tuple(e) for e in ends]


def track_from_dict(doc: dict):
    desc = parse_struct(_field(doc, "structure", str))
    sectors = _strings(_field(doc, "sectors", list), "sectors")
    switches = [
        (_switch_side(sw, "side1", f"switches[{i}]"), _switch_side(sw, "side2", f"switches[{i}]"))
        for i, sw in enumerate(_field(doc, "switches", list))
    ]
    graph = BranchedGraph(sectors, switches)
    texts, read = _field(doc, "weights", dict), _Literals(desc)
    weights = WeightSystem(desc, {s: read[_field(texts, s, str, "weights")] for s in texts})
    crossings = {}
    for i, c in enumerate(_field(doc, "crossings", list) if "crossings" in doc else ()):
        sector, end, multiplier = (_field(c, key, str, f"crossings[{i}]") for key in ("sector", "end", "multiplier"))
        crossings[(sector, end)] = read[multiplier]
    return graph, weights, Cocycle(desc, crossings)


def load_track(path_or_builtin: str):
    return track_from_dict(_read_json(BUILTIN_TRACKS.get(path_or_builtin, path_or_builtin)))
