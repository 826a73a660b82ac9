"""Shape checks and canonical elements of described structures, plus literal parsing/formatting.

The value variants (``ZERO``, ``TOP``, ``Scalar``, ``Pair``, ``Signed``)
are defined in ``kernel`` and re-exported here.  ``check_value``,
``is_zero`` and ``zero`` are lookups into the descriptor's kernel, which
is compiled lazily, once per descriptor object.

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
)
from .errors import ParseError, ShapeError
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
    if isinstance(d, Base):
        if d.name == "N0":
            return Scalar(1)
        if d.name in ("Rc", "Ro", "Nbar0"):
            return Scalar(XReal(1))
        raise ShapeError(f"{d!r} has no multiplicative identity")
    if isinstance(d, (Insert, BarInsert)):
        return Pair(zero(d.a), one(d.b))
    raise ShapeError(f"{d!r} has no multiplicative identity")


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

def _lex_tokens(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "(),+-/":
            toks.append((c, i))
            i += 1
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append((text[i:j], i))
            i = j
        elif c.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            toks.append((text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", text, i)
    return toks


class _ValueParser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _lex_tokens(text)
        self.pos = 0

    @classmethod
    def from_tokens(cls, text, toks, pos):
        """Parse from a shared token stream (used by the expression evaluator)."""
        p = cls.__new__(cls)
        p.text = text
        p.toks = toks
        p.pos = pos
        return p

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def next(self):
        if self.pos >= len(self.toks):
            raise ParseError("unexpected end of literal", self.text, len(self.text))
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, sym):
        tok, at = self.next()
        if tok != sym:
            raise ParseError(f"expected {sym!r}, found {tok!r}", self.text, at)

    def done(self):
        if self.pos < len(self.toks):
            tok, at = self.toks[self.pos]
            raise ParseError(f"trailing input {tok!r}", self.text, at)

    # ------------------------------------------------------------------

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
            mag = self.value(d.inner)
            if is_zero(d.inner, mag):
                raise ShapeError("signed magnitude must be nonzero")
            return Signed(sign, mag)
        if tok == "top":
            if not isinstance(d, (BarInsert, BarSInsert)):
                raise ShapeError(f"'top' is not an element of {d!r}")
            self.next()
            return TOP
        if tok == "0" and not isinstance(d, Base):
            # bare 0 denotes the additive identity of any structure
            save = self.pos
            self.next()
            if self.peek() != "/":
                return zero(d)
            self.pos = save
        if isinstance(d, Base):
            return self.scalar(d)
        if isinstance(d, (SInsert, BarSInsert, Insert, BarInsert, MixedInsert)):
            self.expect("(")
            v = self.pair_body(d)
            self.expect(")")
            return check_value(d, v)
        raise ShapeError(f"cannot parse a value of {d!r}")

    def pair_body(self, d) -> Value:
        if isinstance(d, MixedInsert):
            lv = self.scalar_int()
            sub = d.residue_desc(lv)
            if sub is None:
                raise ShapeError(f"level {lv} lies outside the mixed insertion range")
            self.expect(",")
            rv = self.component(sub)
            return Pair(Scalar(lv), rv)
        lv = self.value(d.a)
        self.expect(",")
        rv = self.component(d.b)
        return Pair(lv, rv)

    def component(self, d) -> Value:
        # flat-tuple sugar: "(a,b,c)" for right-nested pairs
        if isinstance(d, (SInsert, BarSInsert, Insert, BarInsert, MixedInsert)) and self.peek() not in ("(", "top"):
            save = self.pos
            tok = self.peek()
            if tok == "0":
                self.next()
                if self.peek() != ",":
                    self.pos = save
                    return self.value(d)
                self.pos = save
            return self.pair_body(d)
        return self.value(d)

    def scalar(self, d: Base) -> Value:
        tok, at = self.next()
        if d.name in ("N0", "Z"):
            neg = False
            if tok == "-":
                if d.name == "N0":
                    raise ShapeError("negative value in N0")
                neg = True
                tok, at = self.next()
            if not tok.isdigit():
                raise ParseError(f"expected an integer, found {tok!r}", self.text, at)
            n = int(tok)
            return Scalar(-n if neg else n)
        if tok == "inf":
            x = INF
        elif tok.isdigit():
            num = int(tok)
            if self.peek() == "/":
                self.next()
                dtok, dat = self.next()
                if not dtok.isdigit() or int(dtok) == 0:
                    raise ParseError(f"bad denominator {dtok!r}", self.text, dat)
                x = XReal(num, int(dtok))
            else:
                x = XReal(num)
        else:
            raise ParseError(f"expected a rational or 'inf', found {tok!r}", self.text, at)
        return check_value(d, Scalar(x))

    def scalar_int(self) -> int:
        tok, at = self.next()
        neg = False
        if tok == "-":
            neg = True
            tok, at = self.next()
        if not tok.isdigit():
            raise ParseError(f"expected an integer, found {tok!r}", self.text, at)
        return -int(tok) if neg else int(tok)


def parse_value(d: StructDesc, text: str) -> Value:
    p = _ValueParser(text)
    v = p.value(d)
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
