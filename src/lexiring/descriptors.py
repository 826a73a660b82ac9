"""Structure descriptors: the AST every arithmetic operation is driven by.

A descriptor says how an ordered structure was assembled from base
structures via the two lexicographic combinators (and their variants):

  * ``SInsert(A, B)``   -- full lexicographic product A x B of two
    ordered abelian semigroups (grammar ``\\/``).
  * ``Insert(A, B)``    -- A x (B minus its zero) plus a fresh zero,
    level-dominant addition, level-additive multiplication
    (grammar ``/\\``).
  * ``BarSInsert`` / ``BarInsert`` -- the same with a greatest element
    ``top`` adjoined so all countable sums evaluate.
  * ``MixedInsert``     -- a different residue semigroup at each level.
  * ``DoubleOf``        -- signed wrapper {0} u {+,-} x (L minus 0).

Bases: ``N0`` (naturals), ``Z`` (integers, a group, only usable on the
level side), ``Rc`` = [0, inf], ``Ro`` = [0, inf), ``Nbar0`` = naturals
with infinity.

``facts(d)`` says, in one walk, what d is: group, semigroup, semiring,
semifield, top, least-upper-bound property, summability, and the order
facts those rest on (a least positive element, least elements, greatest
elements of bounded sets).  Each is a sufficient condition under which a
lexicographic product inherits the property from its parts: a five-row
table for the bases, one rule per fact for the four pairings, a constant
for ``double(...)`` and one for ``mixed(...)``, whose least positive
element is that of its least level's residues.  ``capabilities``,
``validate_desc`` and the kernel read it, validation and the kernel
compile applying the pairing rule (``pairing_facts``) to the parts' facts
they already hold; everything else asks the kernel.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import CapabilityError, ParseError, ShapeError

BASE_NAMES = ("N0", "Z", "Rc", "Ro", "Nbar0")


class StructDesc:
    # _kernel: the compiled operations (lexiring.kernel), filled on first use
    __slots__ = ("_kernel", "__weakref__")


class Base(StructDesc):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if name not in BASE_NAMES:
            raise CapabilityError(f"unknown base structure {name!r}")
        self.name = name

    def __eq__(self, other):
        return isinstance(other, Base) and self.name == other.name

    def __hash__(self):
        return hash(("Base", self.name))

    def __repr__(self):
        return self.name


class _Pairing(StructDesc):
    __slots__ = ("a", "b")
    _tag = ""
    _op = ""

    def __init__(self, a: StructDesc, b: StructDesc):
        self.a = a
        self.b = b

    def __eq__(self, other):
        return type(other) is type(self) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self._tag, self.a, self.b))

    def __repr__(self):
        return f"({self.a!r} {self._op} {self.b!r})"


class SInsert(_Pairing):
    __slots__ = ()
    _tag = "SInsert"
    _op = "\\/"


class Insert(_Pairing):
    __slots__ = ()
    _tag = "Insert"
    _op = "/\\"


class BarSInsert(_Pairing):
    __slots__ = ()
    _tag = "BarSInsert"
    _op = "b\\/"


class BarInsert(_Pairing):
    __slots__ = ()
    _tag = "BarInsert"
    _op = "b/\\"


class MixedInsert(StructDesc):
    """Level-dependent residues over an integer level range.

    ``table`` maps explicitly listed levels to descriptors; ``default``
    covers the rest of the range.  ``lo``/``hi`` may be ``None`` for a
    half-bounded range (only with base ``Z``); a half-bounded or gappy
    range requires a default.
    """

    __slots__ = ("base", "lo", "hi", "table", "default")

    def __init__(self, base, lo, hi, table, default=None):
        self.base = base
        self.lo = lo
        self.hi = hi
        self.table = tuple(sorted(table))
        self.default = default

    def __eq__(self, other):
        return (
            isinstance(other, MixedInsert)
            and self.base == other.base
            and self.lo == other.lo
            and self.hi == other.hi
            and self.table == other.table
            and self.default == other.default
        )

    def __hash__(self):
        return hash(("MixedInsert", self.base, self.lo, self.hi, self.table, self.default))

    def __repr__(self):
        rng = f"{'' if self.lo is None else self.lo}..{'' if self.hi is None else self.hi}"
        parts = [f"{k}:{d!r}" for k, d in self.table]
        if self.default is not None:
            parts.append(f"default:{self.default!r}")
        return f"mixed({self.base!r}; {rng}; {', '.join(parts)})"


class DoubleOf(StructDesc):
    __slots__ = ("inner",)

    def __init__(self, inner: StructDesc):
        self.inner = inner

    def __eq__(self, other):
        return isinstance(other, DoubleOf) and self.inner == other.inner

    def __hash__(self):
        return hash(("DoubleOf", self.inner))

    def __repr__(self):
        return f"double({self.inner!r})"


def regroup_desc(d: StructDesc) -> StructDesc:
    """A \\/ (B \\/ C)  ->  (A \\/ B) \\/ C"""
    if not (isinstance(d, SInsert) and isinstance(d.b, SInsert)):
        raise ShapeError("expected a right-nested s-insertion A \\/ (B \\/ C)")
    return SInsert(SInsert(d.a, d.b.a), d.b.b)


def ungroup_desc(d: StructDesc) -> StructDesc:
    """(A \\/ B) \\/ C  ->  A \\/ (B \\/ C), the inverse of regroup_desc"""
    if not (isinstance(d, SInsert) and isinstance(d.a, SInsert)):
        raise ShapeError("expected a left-nested s-insertion (A \\/ B) \\/ C")
    return SInsert(d.a.a, SInsert(d.a.b, d.b))


# ---------------------------------------------------------------------------
# structural facts
# ---------------------------------------------------------------------------

class Facts(NamedTuple):
    """What a structure is, by the sufficient conditions on its parts.

    ``group``: an ordered abelian group (usable as the level side of an
    insertion); ``semigroup``: an ordered abelian semigroup, zero least
    and a + b >= b; ``top``: a greatest element; ``lub``: the
    least-upper-bound property; ``summable``: every countable sum of
    positive elements evaluates; ``least_positive``: a least element
    above zero; ``least``: every nonempty set has a least element;
    ``greatest``: every nonempty set bounded above has a greatest one.
    """

    group: bool
    semigroup: bool
    semiring: bool
    semifield: bool
    top: bool
    lub: bool
    summable: bool
    least_positive: bool
    least: bool
    greatest: bool


_BASE_FACTS = {  # group, semigroup, semiring, semifield, top, lub, summable, least_positive, least, greatest
    "N0": Facts(False, True, True, False, False, True, False, True, True, True),
    "Z": Facts(True, False, False, False, False, True, False, True, False, True),
    "Rc": Facts(False, True, True, False, True, True, True, False, False, False),
    "Ro": Facts(False, True, True, True, False, True, False, False, False, False),
    "Nbar0": Facts(False, True, True, False, True, True, True, True, True, False),
}
_MIXED_FACTS = Facts(False, True, False, False, False, False, False, False, False, False)
_DOUBLE_FACTS = Facts(False, False, False, False, False, False, False, False, False, False)


def facts(d: StructDesc) -> Facts:
    """d's structural facts, built bottom-up from its parts' facts in one walk."""
    if isinstance(d, _Pairing):
        return pairing_facts(d, facts(d.a), facts(d.b))
    if isinstance(d, Base):
        return _BASE_FACTS[d.name]
    if isinstance(d, MixedInsert):  # the residues of its least level that carries residues decide least_positive
        first = max(d.lo or 0, 0) if d.base.name == "N0" else d.lo  # the least level of the range
        least = None if first is None else next(
            (sub for lev, sub in d.table if lev == first or d.default is None and lev > first), d.default)
        return _MIXED_FACTS._replace(least_positive=least is not None and facts(least).least_positive)
    if isinstance(d, DoubleOf):
        return _DOUBLE_FACTS
    raise CapabilityError(f"unknown descriptor {d!r}")


def pairing_facts(d: _Pairing, a: Facts, b: Facts) -> Facts:
    """A pairing's facts from its level side's (a) and its residue side's (b)."""
    bar = isinstance(d, (BarSInsert, BarInsert))
    full = isinstance(d, (SInsert, BarSInsert))
    return Facts(
        False,                                                             # group
        True,                                                              # semigroup
        not full and b.semiring,                                           # semiring
        type(d) is Insert and a.group and b.semifield,                     # semifield
        bar or a.top and b.top,                                            # top
        a.greatest and b.lub and (b.top or b.least_positive and a.least),  # lub
        bar and b.summable,                                                # summable
        (full or a.semigroup) and b.least_positive,                        # least_positive
        a.least and b.least,                                               # least
        a.greatest and b.greatest,                                         # greatest
    )


def capabilities(d: StructDesc) -> dict:
    f = facts(d)
    return {
        "isGroup": f.group,
        "isSemigroup": f.semigroup,
        "isSemiring": f.semiring,
        "isSemifield": f.semifield,
        "hasTop": f.top,
        "hasLubProperty": f.lub,
        "isSummable": f.summable,
    }


def validate_desc(d: StructDesc) -> StructDesc:
    """Check combinator operand requirements, recursively."""
    _validated_facts(d)
    return d


def _validated_facts(d: StructDesc) -> Facts:
    """facts(d), in the same one walk that checks d's operands."""
    if isinstance(d, _Pairing):
        a, b = _validated_facts(d.a), _validated_facts(d.b)
        if isinstance(d, (SInsert, BarSInsert)):
            if not a.semigroup:
                raise CapabilityError(f"left operand of \\/ must be an ordered abelian semigroup: {d.a!r}")
            if not b.semigroup:
                raise CapabilityError(f"right operand of \\/ must be an ordered abelian semigroup: {d.b!r}")
        else:
            if not (a.group or a.semigroup):
                raise CapabilityError(f"level operand of /\\ must be a group or semigroup: {d.a!r}")
            if not b.semigroup:
                raise CapabilityError(f"residue operand of /\\ must be an ordered abelian semigroup: {d.b!r}")
        return pairing_facts(d, a, b)
    if isinstance(d, MixedInsert):
        if d.base.name not in ("N0", "Z"):
            raise CapabilityError("mixed insertion levels must come from N0 or Z")
        if (d.lo is None or d.hi is None) and d.base.name == "Z" and d.default is None:
            raise CapabilityError("half-bounded mixed insertion requires a default residue structure")
        if d.base.name == "N0" and d.hi is not None and d.hi < 0:
            raise CapabilityError(f"the level range ends at {d.hi}, below every level of N0")
        for lev, sub in d.table:
            if not _validated_facts(sub).semigroup:
                raise CapabilityError(f"residue structure at level {lev} must be a semigroup: {sub!r}")
            if d.lo is not None and lev < d.lo or d.hi is not None and lev > d.hi:
                raise CapabilityError(f"level {lev} lies outside the declared range")
            if d.base.name == "N0" and lev < 0:
                raise CapabilityError("negative level with base N0")
        if d.default is not None and not _validated_facts(d.default).semigroup:
            raise CapabilityError("default residue structure must be a semigroup")
    elif isinstance(d, DoubleOf) and not _validated_facts(d.inner).semigroup:
        raise CapabilityError("double() requires an ordered abelian semigroup inside")
    return facts(d)  # no pairing: constant facts, but for the least level's residues in mixed(...)


# ---------------------------------------------------------------------------
# common structures and aliases
# ---------------------------------------------------------------------------

N0 = Base("N0")
Z = Base("Z")
RC = Base("Rc")
RO = Base("Ro")
NBAR0 = Base("Nbar0")

S = Insert(N0, RC)
O = Insert(Z, RC)
P = Insert(Z, RO)
SBAR = BarInsert(N0, RC)
OBAR = BarInsert(Z, RC)


def s_nested(n: int) -> StructDesc:
    """n bar-insertions of N0 ending in [0, inf], right-nested."""
    d: StructDesc = RC
    for _ in range(n):
        d = BarInsert(N0, d)
    return d


def o_nested(n: int) -> StructDesc:
    d: StructDesc = RC
    for _ in range(n):
        d = BarInsert(Z, d)
    return d


def p_nested(n: int) -> StructDesc:
    """n plain insertions of Z ending in [0, inf): an ordered semifield."""
    d: StructDesc = RO
    for _ in range(n):
        d = Insert(Z, d)
    return d


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------

# One lexer for the structure, literal and expression grammars: operators,
# punctuation, ASCII identifiers and ASCII digit runs; any other non-space
# character is a token of its own that no grammar accepts.
_TOKEN = re.compile(r"b\\/|b/\\|\\/|/\\|\.\.|[A-Za-z][A-Za-z0-9_]*|[0-9]+|\S")

# The deepest nesting any grammar reads: parentheses within one text, and n
# in Sn(n)/On(n)/Pn(n).  The parsers, and the kernels and printers of what
# they build, recurse once per level, so this keeps them far from Python's
# recursion limit.
MAX_DEPTH = 64


def is_digits(tok) -> bool:
    """Whether a token is an ASCII digit run."""
    return "0" <= tok[0] <= "9"


class TokenStream:
    """A cursor over the tokens of one text, shared by the three grammars."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.pos = 0
        if text.count("(") > MAX_DEPTH:
            depth = 0
            for i, tok in enumerate(self.toks):
                if tok == "(":
                    depth += 1
                    if depth > MAX_DEPTH:
                        raise self.error(f"parentheses nest deeper than {MAX_DEPTH} levels", i)
                elif tok == ")":
                    depth -= 1

    def error(self, message: str, index=None) -> ParseError:
        """A ParseError at the character position of token ``index`` (default: the last one read)."""
        if index is None:
            index = self.pos - 1
        at = len(self.text)
        for i, m in enumerate(_TOKEN.finditer(self.text)):
            if i == index:
                at = m.start()
                break
        return ParseError(message, self.text, at)

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        pos = self.pos
        if pos >= len(self.toks):
            raise self.error("unexpected end of input", pos)
        self.pos = pos + 1
        return self.toks[pos]

    def expect(self, sym: str):
        tok = self.next()
        if tok != sym:
            raise self.error(f"expected {sym!r}, found {tok!r}")

    def done(self):
        if self.pos < len(self.toks):
            raise self.error(f"trailing input {self.toks[self.pos]!r}", self.pos)

    def int(self) -> int:
        """An optional '-' and then a digit run."""
        tok = self.next()
        neg = tok == "-"
        if neg:
            tok = self.next()
        if not is_digits(tok):
            raise self.error(f"expected an integer, found {tok!r}")
        return -int(tok) if neg else int(tok)


_INSERTIONS = {"\\/": SInsert, "/\\": Insert, "b\\/": BarSInsert, "b/\\": BarInsert}
_ALIASES = {"S": (Insert, N0, RC), "O": (Insert, Z, RC), "P": (Insert, Z, RO),
            "Sbar": (BarInsert, N0, RC), "Obar": (BarInsert, Z, RC)}
_NESTED = {"Sn": s_nested, "On": o_nested, "Pn": p_nested}


class _StructParser(TokenStream):
    def parse(self) -> StructDesc:
        d = self.struct()
        self.done()
        return d

    def struct(self) -> StructDesc:
        left = self.prim()
        cls = _INSERTIONS.get(self.peek())
        if cls is None:
            return left
        self.next()
        right = self.prim()
        if self.peek() in _INSERTIONS:
            raise self.error("insertion operators do not associate; parentheses required", self.pos)
        return cls(left, right)

    def prim(self) -> StructDesc:
        tok = self.next()
        if tok == "(":
            inner = self.struct()
            self.expect(")")
            return inner
        if tok == "double":
            self.expect("(")
            inner = self.struct()
            self.expect(")")
            return DoubleOf(inner)
        if tok == "mixed":
            return self.mixed()
        if tok in BASE_NAMES or tok == "NBar0":
            return Base("Nbar0" if tok == "NBar0" else tok)
        if tok in _ALIASES:  # a fresh object: each descriptor keeps its own kernel
            cls, a, b = _ALIASES[tok]
            return cls(a, b)
        if tok in _NESTED:
            self.expect("(")
            n = self.int()
            if not 1 <= n <= MAX_DEPTH:
                raise self.error(f"nesting depth must be between 1 and {MAX_DEPTH}")
            self.expect(")")
            return _NESTED[tok](n)
        raise self.error(f"unexpected token {tok!r}")

    def mixed(self) -> StructDesc:
        self.expect("(")
        name = self.next()
        if name not in ("N0", "Z"):
            raise self.error("mixed base must be N0 or Z")
        base = Base(name)
        self.expect(";")
        lo = hi = None
        lo_at = self.pos  # the range's first token, where an empty range is reported
        if self.peek() != "..":
            lo = self.int()
        self.expect("..")
        if self.peek() != ";":
            hi = self.int()
        self.expect(";")
        table = []
        default = None
        while True:
            if self.peek() == "default":
                self.next()
                self.expect(":")
                default = self.struct()
            else:
                lev = self.int()
                self.expect(":")
                table.append((lev, self.struct()))
            if self.peek() not in (",", ";"):
                break
            self.next()
        self.expect(")")
        if lo is not None and hi is not None and lo > hi:
            raise self.error("empty level range", lo_at)
        return MixedInsert(base, lo, hi, table, default)


def parse_struct(text: str) -> StructDesc:
    """Parse and validate a structure expression."""
    return validate_desc(_StructParser(text).parse())


def struct_text(d: StructDesc) -> str:
    """Grammar text for a descriptor; parse_struct(struct_text(d)) == d."""
    return repr(d)
