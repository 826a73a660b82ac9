"""The built-in scene documents, kept apart from the loaders in ``scenes``
so that the CLI can list their names without importing the measure stack.

The dartboard: a unit-area board with a drawn cross.  Area is seen at
level 0, the cross carries one-dimensional length at level -1, and the
depth-2 variant concentrates a third level at the center point.
"""

from __future__ import annotations

import json

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
