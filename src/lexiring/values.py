"""Shape checks and canonical elements of described structures, plus literal parsing/formatting.

The value variants (``ZERO``, ``TOP``, ``Scalar``, ``Pair``, ``Signed``)
are defined in ``kernel`` and re-exported here.  ``check_value``,
``is_zero``, ``zero`` and ``one`` are lookups into the descriptor's
kernel, which is compiled lazily, once per descriptor object.

Literals: ``0``, ``top``, ``inf``, integers, ``p/q``, nested tuples, and
a leading ``-`` under double().  Flat tuples like ``(-1,2,3)`` are
accepted as sugar for right-nested shapes; canonical output is nested.
"""

from __future__ import annotations

from .descriptors import (
    Base,
    BarInsert,
    BarSInsert,
    DoubleOf,
    Insert,
    MixedInsert,
    SInsert,
    StructDesc,
    TokenStream,
    is_digits,
)
from .errors import ShapeError
from .kernel import TOP, ZERO, Pair, Scalar, Signed, Value, kernel_of
from .xreal import INF, XReal


# ---------------------------------------------------------------------------
# canonical elements
# ---------------------------------------------------------------------------

def zero(d: StructDesc) -> Value:
    """The additive identity of d, in its structural representation."""
    return kernel_of(d).zero


def is_zero(d: StructDesc, v: Value) -> bool:
    return kernel_of(d).is_zero(v)


def one(d: StructDesc) -> Value:
    """Multiplicative identity of a semiring descriptor."""
    v = kernel_of(d).one
    if v is None:
        raise ShapeError(f"{d!r} has no multiplicative identity")
    return v


def stack_levels(levels, residue: XReal) -> Value:
    """The element (l1, (l2, ... (ln, residue))) of integer levels stacked over a rational."""
    v = Scalar(residue)
    for lev in reversed(levels):
        v = Pair(Scalar(lev), v)
    return v


def level_vector(v: Value, n: int):
    """Inverse of ``stack_levels`` for n levels: (levels tuple, innermost rational)."""
    levels = []
    for _ in range(n):
        levels.append(v.level.x)
        v = v.residue
    return tuple(levels), v.x


# ---------------------------------------------------------------------------
# shape validation
# ---------------------------------------------------------------------------

def check_value(d: StructDesc, v: Value) -> Value:
    """Raise ShapeError unless v is well-shaped for d."""
    return kernel_of(d).check(v)


# ---------------------------------------------------------------------------
# literal grammar
# ---------------------------------------------------------------------------

class _ValueParser(TokenStream):
    """Literal grammar; values are built unchecked and checked once, whole."""

    def literal(self, d: StructDesc) -> Value:
        return check_value(d, self.value(d))

    def value(self, d: StructDesc) -> Value:
        tok = self.peek()
        if isinstance(d, DoubleOf):
            sign = 1
            if tok in ("+", "-"):
                self.next()
                sign = -1 if tok == "-" else 1
            if self.peek() == "0" and sign == 1:
                self.next()
                return ZERO
            return Signed(sign, self.value(d.inner))
        if tok == "top":
            if not isinstance(d, (BarInsert, BarSInsert)):
                raise ShapeError(f"'top' is not an element of {d!r}")
            self.next()
            return TOP
        if tok == "0" and not isinstance(d, Base) and self.toks[self.pos + 1:self.pos + 2] != ["/"]:
            self.next()
            return zero(d)  # bare 0 denotes the additive identity of any structure
        if isinstance(d, Base):
            return self.scalar(d)
        if isinstance(d, (SInsert, BarSInsert, Insert, BarInsert, MixedInsert)):
            self.expect("(")
            v = self.pair_body(d)
            self.expect(")")
            return v
        raise ShapeError(f"cannot parse a value of {d!r}")

    def pair_body(self, d) -> Value:
        if isinstance(d, MixedInsert):
            lv = self.int()
            sub = d.residue_desc(lv)
            if sub is None:
                raise ShapeError(f"level {lv} lies outside the mixed insertion range")
            self.expect(",")
            return Pair(Scalar(lv), self.component(sub))
        lv = self.value(d.a)
        self.expect(",")
        return Pair(lv, self.component(d.b))

    def component(self, d) -> Value:
        # flat-tuple sugar: "(a,b,c)" for right-nested pairs
        if isinstance(d, (SInsert, BarSInsert, Insert, BarInsert, MixedInsert)) and self.peek() not in ("(", "top"):
            if self.peek() == "0" and self.toks[self.pos + 1:self.pos + 2] != [","]:
                return self.value(d)  # a bare 0, not the first level of a flat tuple
            return self.pair_body(d)
        return self.value(d)

    def scalar(self, d: Base) -> Value:
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


def parse_value(d: StructDesc, text: str) -> Value:
    p = _ValueParser(text)
    v = p.literal(d)
    p.done()
    return v


def format_value(d: StructDesc, v: Value) -> str:
    """Canonical literal: nested tuples, '0' for any additive identity."""
    if is_zero(d, v):
        return "0"
    if v is TOP:
        return "top"
    if isinstance(d, Base):
        return str(v.x)
    if isinstance(d, (SInsert, BarSInsert, Insert, BarInsert)):
        return f"({format_value(d.a, v.level)},{format_value(d.b, v.residue)})"
    if isinstance(d, MixedInsert):
        sub = d.residue_desc(v.level.x)
        return f"({v.level.x},{format_value(sub, v.residue)})"
    if isinstance(d, DoubleOf):
        body = format_value(d.inner, v.mag)
        return body if v.sign > 0 else f"-{body}"
    raise ShapeError(f"cannot format {v!r} for {d!r}")
