"""Outside-in layer tracer.

The tracer replaces, for the length of one traced pass, the names through
which one lexiring module calls into another (module attributes such as
``ops.add`` and imported bindings such as ``measure._add``) with timing
wrappers, and restores them afterwards.  Nothing under ``src/`` changes.

Each layer is a module.  A wrapper opens a span only when the innermost
open span belongs to another module, so recursion and calls inside a
module fold into the open span; ``nested`` layers (``cli.expr``,
``tree.segment``) are sub-spans that also open inside their own module.
Self time is a span's duration minus the time its child spans cover.

Millisecond-scale layers keep every span (name, start, end, parent,
request id).  Microsecond-scale layers (``ops``, ``values``, ``xreal``,
``laws.gen``) keep only per-request aggregates: calls, total and self
seconds.  Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter as clock

XREAL_ARITH = ("__add__", "__mul__", "__truediv__", "minus", "scaled", "_cmp")
OPS_PUBLIC = ("add", "mul", "inv", "try_inv", "divide", "cmp", "level", "residue", "shift")

# (layer, module, nested, keep spans, call sites as (owner, attribute))
LAYERS = (
    ("cli.main", "cli", False, True, [("cli", "main")]),
    ("cli.expr", "cli", True, True, [("cli", "eval_expression")]),
    ("descriptors.parse", "descriptors", False, True,
     [("lexiring", "parse_struct"), ("cli", "parse_struct"), ("scenes", "parse_struct"), ("laws", "parse_struct")]),
    ("scenes.load", "scenes", False, True, [("scenes", "scene_from_dict"), ("scenes", "tree_from_dict")]),
    ("measure.build", "measure", False, True, [("measure.LMeasure", "__init__")]),
    ("measure.value", "measure", False, True, [("measure.LMeasure", "value")]),
    ("prob.cond", "prob", False, True, [("prob", "cond_prob")]),
    ("prob.bayes", "prob", False, True, [("prob", "bayes")]),
    ("tree.build", "tree", False, True, [("tree.LTree", "__init__")]),
    ("tree.query", "tree", False, True, [("tree", "distance"), ("tree", "meet")]),
    ("tree.segment", "tree", True, True, [("tree", "segment")]),
    ("laws.gen", "laws", False, False, [("laws", "random_value")]),
    ("ops.public", "ops", False, False,
     [("ops", name) for name in OPS_PUBLIC] + [("prob", "divide"), ("measure", "shift")]),
    ("ops.kernel", "ops", False, False,
     [("measure", "_add"), ("prob", "_add"), ("prob", "_mul"), ("tree", "_add"), ("tree", "_cmp")]),
    ("values.check", "values", False, False,
     [("ops", "check_value"), ("measure", "check_value"), ("tree", "check_value"), ("cli", "check_value")]),
    ("values.parse", "values", False, False,
     [("values._ValueParser", "value"), ("cli", "parse_value"), ("scenes", "parse_value")]),
    ("values.format", "values", False, False,
     [("values", "format_value"), ("cli", "format_value"), ("scenes", "format_value")]),
    ("xreal.arith", "xreal", False, False, [("xreal.XReal", name) for name in XREAL_ARITH]),
)


def _resolve(path: str):
    """'cli' -> lexiring.cli, 'measure.LMeasure' -> that class, 'lexiring' -> the package."""
    mod, _, cls = path.partition(".")
    owner = sys.modules.get("lexiring" if mod == "lexiring" else f"lexiring.{mod}")
    return getattr(owner, cls, None) if cls and owner is not None else owner


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent span index, request id]
        self.per_request = {}  # request id -> {layer: [calls, total_s, self_s]}
        self.max_bits = 0
        self.atoms_scanned = 0
        self._agg = {}
        self._rid = None
        self._stack = []
        self._installed = []

    # -- installation ----------------------------------------------------

    def install(self):
        hooks = {"xreal.arith": self._bits, "measure.value": self._scanned}
        for layer, module, nested, keep, sites in LAYERS:
            for owner_path, attr in sites:
                owner = _resolve(owner_path)
                if owner is None:
                    continue
                original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if original is None:
                    continue
                setattr(owner, attr, self._wrap(original, layer, module, nested, keep, hooks.get(layer)))
                self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _bits(self, args, result):
        num = getattr(result, "num", None)
        if num is not None:
            bits = max(num.bit_length(), result.den.bit_length())
            if bits > self.max_bits:
                self.max_bits = bits

    def _scanned(self, args, result):
        self.atoms_scanned += len(args[0].space.atoms)

    # -- requests --------------------------------------------------------

    def begin(self, rid):
        self._rid = rid
        self._agg = {}
        self.spans.append(["request", clock(), None, -1, rid])
        self._stack = [["request", "bench", 0.0, len(self.spans) - 1]]

    def end(self):
        self.spans[self._stack[0][3]][2] = clock()
        self.per_request[self._rid] = self._agg

    def _wrap(self, fn, layer, module, nested, keep, hook):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            top = stack[-1]
            if top[0] == layer or (not nested and top[1] == module):
                return fn(*args, **kwargs)
            span_index = top[3]  # kept spans get their own; aggregated ones pass the parent's on
            if keep:
                tracer.spans.append([layer, None, None, span_index, tracer._rid])
                span_index = len(tracer.spans) - 1
            frame = [layer, module, 0.0, span_index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stack[-1][2] += dur
                agg = tracer._agg.get(layer)
                if agg is None:
                    agg = tracer._agg[layer] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[2]
                if keep:
                    span = tracer.spans[span_index]
                    span[1], span[2] = start, start + dur
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- results ---------------------------------------------------------

    def totals(self) -> dict:
        out = {}
        for agg in self.per_request.values():
            for layer, (calls, total, self_s) in agg.items():
                acc = out.setdefault(layer, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
        return out

    def dump(self, path, meta: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "spans": self.spans,
                       "aggregates": {str(rid): agg for rid, agg in self.per_request.items()}}, fh)
