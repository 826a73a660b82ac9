"""Tagged elements of described structures, plus literal parsing/formatting.

A ``Value`` is well-shaped for exactly one descriptor, supplied alongside
it by every operation.  Variants:

  * ``ZERO``        -- the adjoined zero of an insertion / double (and the
    canonical spelling of any additive identity in the literal grammar).
  * ``TOP``         -- the greatest element of a bar structure.
  * ``Scalar(x)``   -- a base-structure element: int for N0/Z, XReal for
    Rc/Ro/Nbar0.
  * ``Pair(l, r)``  -- level part and residue part.
  * ``Signed(s, m)``-- sign (+1/-1) and nonzero magnitude, under double().

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
from .xreal import INF, XReal
from .xreal import ZERO as XR_ZERO


class Value:
    __slots__ = ()


class _ZeroVal(Value):
    __slots__ = ()

    def __repr__(self):
        return "0"


class _TopVal(Value):
    __slots__ = ()

    def __repr__(self):
        return "top"


ZERO = _ZeroVal()
TOP = _TopVal()


class Scalar(Value):
    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x

    def __eq__(self, other):
        return isinstance(other, Scalar) and self.x == other.x

    def __hash__(self):
        return hash(("Scalar", self.x))

    def __repr__(self):
        return str(self.x)


class Pair(Value):
    __slots__ = ("level", "residue")

    def __init__(self, level: Value, residue: Value):
        self.level = level
        self.residue = residue

    def __eq__(self, other):
        return isinstance(other, Pair) and self.level == other.level and self.residue == other.residue

    def __hash__(self):
        return hash(("Pair", self.level, self.residue))

    def __repr__(self):
        return f"({self.level!r},{self.residue!r})"


class Signed(Value):
    __slots__ = ("sign", "mag")

    def __init__(self, sign: int, mag: Value):
        self.sign = sign
        self.mag = mag

    def __eq__(self, other):
        return isinstance(other, Signed) and self.sign == other.sign and self.mag == other.mag

    def __hash__(self):
        return hash(("Signed", self.sign, self.mag))

    def __repr__(self):
        return ("-" if self.sign < 0 else "+") + repr(self.mag)


# ---------------------------------------------------------------------------
# canonical elements
# ---------------------------------------------------------------------------

def zero(d: StructDesc) -> Value:
    """The additive identity of d, in its structural representation."""
    if isinstance(d, Base):
        return Scalar(0) if d.name in ("N0", "Z") else Scalar(XR_ZERO)
    if isinstance(d, (SInsert, BarSInsert)):
        return Pair(zero(d.a), zero(d.b))
    return ZERO


def is_zero(d: StructDesc, v: Value) -> bool:
    if v is ZERO:
        return True
    if isinstance(d, Base) and isinstance(v, Scalar):
        return v.x == 0 or (isinstance(v.x, XReal) and v.x.is_zero)
    if isinstance(d, (SInsert, BarSInsert)) and isinstance(v, Pair):
        return is_zero(d.a, v.level) and is_zero(d.b, v.residue)
    return False


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


# ---------------------------------------------------------------------------
# shape validation
# ---------------------------------------------------------------------------

def check_value(d: StructDesc, v: Value) -> Value:
    """Raise ShapeError unless v is well-shaped for d."""
    if isinstance(d, Base):
        if not isinstance(v, Scalar):
            raise ShapeError(f"expected a {d.name} scalar, got {v!r}")
        if d.name in ("N0", "Z"):
            if not isinstance(v.x, int):
                raise ShapeError(f"{d.name} values are integers, got {v!r}")
            if d.name == "N0" and v.x < 0:
                raise ShapeError(f"negative value {v!r} in N0")
        else:
            if not isinstance(v.x, XReal):
                raise ShapeError(f"{d.name} values are extended rationals, got {v!r}")
            if d.name == "Ro" and v.x.is_inf:
                raise ShapeError("inf does not belong to [0,inf)")
            if d.name == "Nbar0" and not (v.x.is_inf or v.x.is_integral):
                raise ShapeError(f"{v!r} is not a natural number or inf")
        return v
    if isinstance(d, (SInsert, BarSInsert)):
        if v is TOP:
            if isinstance(d, BarSInsert):
                return v
            raise ShapeError("top only exists in bar structures")
        if not isinstance(v, Pair):
            raise ShapeError(f"expected a pair, got {v!r}")
        check_value(d.a, v.level)
        check_value(d.b, v.residue)
        return v
    if isinstance(d, (Insert, BarInsert)):
        if v is ZERO:
            return v
        if v is TOP:
            if isinstance(d, BarInsert):
                return v
            raise ShapeError("top only exists in bar structures")
        if not isinstance(v, Pair):
            raise ShapeError(f"expected a pair or 0, got {v!r}")
        check_value(d.a, v.level)
        check_value(d.b, v.residue)
        if is_zero(d.b, v.residue):
            raise ShapeError(f"residue of {v!r} is the zero of {d.b!r}; insertion removes it")
        return v
    if isinstance(d, MixedInsert):
        if v is ZERO:
            return v
        if not isinstance(v, Pair):
            raise ShapeError(f"expected a pair or 0, got {v!r}")
        if not (isinstance(v.level, Scalar) and isinstance(v.level.x, int)):
            raise ShapeError(f"mixed insertion level must be an integer, got {v.level!r}")
        sub = d.residue_desc(v.level.x)
        if sub is None:
            raise ShapeError(f"level {v.level.x} lies outside the mixed insertion range")
        check_value(sub, v.residue)
        if is_zero(sub, v.residue):
            raise ShapeError("residue is the zero of its level structure")
        return v
    if isinstance(d, DoubleOf):
        if v is ZERO:
            return v
        if not isinstance(v, Signed):
            raise ShapeError(f"expected a signed value or 0, got {v!r}")
        if v.sign not in (1, -1):
            raise ShapeError(f"bad sign {v.sign!r}")
        check_value(d.inner, v.mag)
        if is_zero(d.inner, v.mag):
            raise ShapeError("signed magnitude must be nonzero")
        return v
    raise ShapeError(f"unknown descriptor {d!r}")


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
