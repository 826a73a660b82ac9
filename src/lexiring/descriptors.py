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

Each descriptor's constructor sets two slots from its parts' slots.
``d.facts`` says what d is: group, semigroup, semiring, semifield, top,
least-upper-bound property, summability, and the order facts those rest
on (a least positive element, least elements, greatest elements of
bounded sets).  Each is a sufficient condition under which a
lexicographic product inherits the property from its parts: a five-row
table for the bases, one rule per fact for the four pairings, a constant
for ``double(...)`` and one for ``mixed(...)``, whose least positive
element is that of its least level's residues (none over a range that
holds no level).  ``d.fault`` is the message of the first operand
requirement that d or one of its parts breaks (a pairing's parts first,
then its own operands), or None.  ``facts(d)``, ``capabilities``,
``validate_desc`` and the kernel read these slots (the facts alone decide
where ``one``, ``least_positive`` and ``repeat_limit`` exist); everything
else asks the kernel.  Two descriptors are equal, and hash alike, when
they are of one class and their ``_key()`` parts are equal.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import accumulate, count
from operator import sub
from typing import NamedTuple

from .errors import CapabilityError, ParseError, ShapeError

BASE_NAMES = ("N0", "Z", "Rc", "Ro", "Nbar0")


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


class StructDesc:
    # facts: what the structure is (Facts); fault: the first operand requirement it or a part
    # breaks, or None; both set by the constructor.  _kernel: the compiled operations
    # (lexiring.kernel), filled on first use
    __slots__ = ("facts", "fault", "_kernel", "__weakref__")

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))


class Base(StructDesc):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if name not in BASE_NAMES:
            raise CapabilityError(f"unknown base structure {name!r}")
        self.name = name
        self.facts, self.fault = _BASE_FACTS[name], None

    def _key(self):
        return self.name

    def __repr__(self):
        return self.name


class _Pairing(StructDesc):
    """Level side a and residue side b; ``full`` keeps the pair of zeros, ``bar`` adjoins top."""

    __slots__ = ("a", "b")
    _op = ""
    full = bar = False

    def __init__(self, a: StructDesc, b: StructDesc):
        self.a = a
        self.b = b
        fa, fb, full, bar = a.facts, b.facts, self.full, self.bar
        self.facts = Facts(
            False,                                                                # group
            True,                                                                 # semigroup
            not full and fb.semiring,                                             # semiring
            not (full or bar) and fa.group and fb.semifield,                      # semifield
            bar or fa.top and fb.top,                                             # top
            fa.greatest and fb.lub and (fb.top or fb.least_positive and fa.least),  # lub
            bar and fb.summable,                                                  # summable
            (full or fa.semigroup) and fb.least_positive,                         # least_positive
            fa.least and fb.least,                                                # least
            fa.greatest and fb.greatest,                                          # greatest
        )
        self.fault = a.fault or b.fault
        if self.fault is None and not (fa.semigroup or fa.group and not full):
            self.fault = (f"left operand of \\/ must be an ordered abelian semigroup: {a!r}" if full
                          else f"level operand of /\\ must be a group or semigroup: {a!r}")
        elif self.fault is None and not fb.semigroup:
            self.fault = (f"right operand of \\/ must be an ordered abelian semigroup: {b!r}" if full
                          else f"residue operand of /\\ must be an ordered abelian semigroup: {b!r}")

    def _key(self):
        return self.a, self.b

    def __repr__(self):
        return f"({self.a!r} {self._op} {self.b!r})"


class SInsert(_Pairing):
    __slots__ = ()
    _op = "\\/"
    full = True


class Insert(_Pairing):
    __slots__ = ()
    _op = "/\\"


class BarSInsert(_Pairing):
    __slots__ = ()
    _op = "b\\/"
    full = bar = True


class BarInsert(_Pairing):
    __slots__ = ()
    _op = "b/\\"
    bar = True


class MixedInsert(StructDesc):
    """Level-dependent residues over an integer level range.

    ``table`` maps explicitly listed levels to descriptors; ``default``
    covers the rest of the range.  ``lo``/``hi`` may be ``None`` for a
    half-bounded range (only with base ``Z``); a half-bounded or gappy
    range requires a default.  ``first`` is the range's least level, None
    if it is unbounded below.
    """

    __slots__ = ("base", "lo", "hi", "table", "default", "first")

    def __init__(self, base, lo, hi, table, default=None):
        self.base = base
        self.lo = lo
        self.hi = hi
        self.table = tuple(sorted(table))
        self.default = default
        # the residues of its least level that carries residues decide least_positive; an empty range has only 0
        self.first = first = max(lo or 0, 0) if base.name == "N0" else lo
        least = None if first is None or hi is not None and first > hi else next(
            (sub for lev, sub in self.table if lev == first or default is None and lev > first), default)
        self.facts = _MIXED_FACTS._replace(least_positive=least is not None and least.facts.least_positive)
        self.fault = self._first_fault()

    def _first_fault(self):
        """The first operand requirement this node or a part breaks, or None."""
        name, lo, hi, default = self.base.name, self.lo, self.hi, self.default
        if name not in ("N0", "Z"):
            return "mixed insertion levels must come from N0 or Z"
        if (lo is None or hi is None) and name == "Z" and default is None:
            return "half-bounded mixed insertion requires a default residue structure"
        if name == "N0" and hi is not None and hi < 0:
            return f"the level range ends at {hi}, below every level of N0"
        for lev, sub in self.table:
            if sub.fault or not sub.facts.semigroup:
                return sub.fault or f"residue structure at level {lev} must be a semigroup: {sub!r}"
            if lo is not None and lev < lo or hi is not None and lev > hi:
                return f"level {lev} lies outside the declared range"
            if name == "N0" and lev < 0:
                return "negative level with base N0"
        if default is not None and (default.fault or not default.facts.semigroup):
            return default.fault or "default residue structure must be a semigroup"
        return None

    def _key(self):
        return self.base, self.lo, self.hi, self.table, self.default

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
        self.facts = _DOUBLE_FACTS
        self.fault = inner.fault or (None if inner.facts.semigroup
                                     else "double() requires an ordered abelian semigroup inside")

    def _key(self):
        return self.inner

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


def facts(d: StructDesc) -> Facts:
    """d's structural facts, which its constructor set from its parts' facts."""
    return d.facts


def capabilities(d: StructDesc) -> dict:
    f = d.facts
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
    """Check combinator operand requirements: raise the first that d or a part breaks."""
    if d.fault:
        raise CapabilityError(d.fault)
    return d


# ---------------------------------------------------------------------------
# common structures and aliases
# ---------------------------------------------------------------------------

N0 = Base("N0")
Z = Base("Z")
RC = Base("Rc")
RO = Base("Ro")
NBAR0 = Base("Nbar0")
OBAR = BarInsert(Z, RC)


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
# The longest digit run any grammar reads: CPython refuses to convert longer ints to or from text.
MAX_DIGITS = 4300
_LONG_DIGITS = re.compile("[0-9]{%d}" % (MAX_DIGITS + 1))
_PARENS = bytes.maketrans(b"()", b"\x02\x00"), bytes(c for c in range(256) if c not in b"()")  # translate() args


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
            # each parenthesis is a token: the depth after the kth of the text is the running sum of 2 per
            # '(' and 0 per ')' less k, taken in C; it moves by one, so the first too deep is MAX_DEPTH + 1
            steps = text.encode("utf-8", "surrogatepass").translate(*_PARENS)
            depths = list(map(sub, accumulate(steps), count(1)))
            if MAX_DEPTH + 1 in depths:
                parens = [i for i, tok in enumerate(self.toks) if tok == "(" or tok == ")"]
                at = parens[depths.index(MAX_DEPTH + 1)]
                raise self.error(f"parentheses nest deeper than {MAX_DEPTH} levels", at)
        if len(text) > MAX_DIGITS and _LONG_DIGITS.search(text):  # found in C; a token walk places it
            for i, tok in enumerate(self.toks):
                if len(tok) > MAX_DIGITS and is_digits(tok):
                    raise self.error(f"a number longer than {MAX_DIGITS} digits", i)

    @cached_property
    def _starts(self):
        """Each token's character position, found on the first error."""
        return [m.start() for m in _TOKEN.finditer(self.text)]

    def error(self, message: str, index=None) -> ParseError:
        """A ParseError at the character position of token ``index`` (default: the last one read)."""
        if index is None:
            index = self.pos - 1
        starts = self._starts
        return ParseError(message, self.text, starts[index] if 0 <= index < len(starts) else len(self.text))

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
_NESTED = {"Sn": (BarInsert, N0, RC), "On": (BarInsert, Z, RC), "Pn": (Insert, Z, RO)}  # cls(level, ...) n deep


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
            cls, level, d = _NESTED[tok]
            for _ in range(n):
                d = cls(level, d)
            return d
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
