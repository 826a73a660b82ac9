"""Elements of described structures and the kernel compiled once per descriptor.

A ``Value`` is well-shaped for exactly one descriptor, supplied alongside
it by every operation.  Variants:

  * ``ZERO``        -- the adjoined zero of an insertion / double (and the
    canonical spelling of any additive identity in the literal grammar).
  * ``TOP``         -- the greatest element of a bar structure.
  * ``Scalar(x)``   -- a base-structure element: int for N0/Z, XReal for
    Rc/Ro/Nbar0.
  * ``Pair(l, r)``  -- level part and residue part.
  * ``Signed(s, m)``-- sign (+1/-1) and nonzero magnitude, under double().

``kernel_of(d)`` compiles d, the first time it is used, into a ``Kernel``
of closures (shape check, zero test, comparison, addition, n-ary sum,
multiplication, inverse, order successor, seeded random draws, literal
reading and formatting), canonical elements and capability flags, and
keeps it in d's ``_kernel`` slot: it lives and dies with the descriptor
object.  A composite kernel captures its parts' closures, so no call
walks the descriptor again (Feeley & Lapalme, "Using closures for code
generation", Computer Languages 12(1), 1987).  All but ``check`` assume
well-shaped operands.
A pairing of two bases compiles its ``check`` as one inline test of
exact types and payloads (of a base level over an insertion, it tests
the level and a ``ZERO`` residue inline, then calls the residue's
check), and one with an integer level its ``parse`` and ``run`` off the
text; each takes the common case and hands anything else to the
composed one: every verdict and error is its.

Seeded draws take their integers from ``_below(rng, n)``, which draws
``getrandbits(n.bit_length())`` until the result is below n, as CPython's
``randrange(n)`` does: the same bits, the same values, the same rng state
after.  A pairing of an ``N0``/``Z`` level compiles its draw as one
closure, ``_fused_gen``, which makes the composed draw's rng calls in
its order, with each ``_below`` inline.  ``DRAW_DIGEST`` and
``DRAW_STATE_DIGEST`` in the tests pin the stream and the state after
it, so a Python whose ``random`` draws otherwise, or a draw that takes
one bit more, shows there.  Equal base draws are one shared, never
mutated object.

``sum(values)`` folds event measures, Bayes, finite series, integrals
and branch equations.  It equals the ordered left fold of ``add`` from
``zero``, and it relies on that addition being associative and
commutative, which it is everywhere but under ``double()``: there
``sum`` is that ordered fold.  Elsewhere it finds the dominant level
first and sums only the residues there, once, in the residue
structure's own ``sum``; a rational residue sum adds the numerators over
a running common denominator and reduces once.  ``mul``, ``inv`` and
``one`` exist exactly in semirings; a product of many factors is the
ordered left fold of ``mul``.
"""

from __future__ import annotations

import re
import sys
from functools import cache
from math import gcd

from .descriptors import (MAX_DIGITS, RC, Base, BarInsert, BarSInsert, DoubleOf, Insert, MixedInsert, SInsert,
                          StructDesc, is_digits)
from .errors import CapabilityError, DomainError, ShapeError
from .xreal import INF, ONE, XReal
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


DENSE, NOTHING_ABOVE = object(), object()  # what succ returns besides an element (see Kernel)
LT, EQ, GT = -1, 0, 1
ZERO_P = 0.12  # chance of drawing an adjoined zero, where the caller does not say


class Kernel:
    """One descriptor's compiled operations and capability flags.

    ``zero`` is the additive identity itself, and the empty ``sum``;
    ``sum`` defaults to the ordered left fold of ``add``; ``mul``, ``inv``
    and ``one`` exist exactly where ``facts.semiring`` holds, and are None
    elsewhere; ``prob_depth`` counts the integer levels stacked over the
    finite rationals (None unless d is such a probability structure);
    ``facts`` is ``d.facts``, and ``semiring``/``semifield`` are copied
    from it.

    Callers learn what kind of structure d is here: ``base`` names a base;
    ``parts`` holds an insertion's level and residue kernels, ``int_levels``
    says its levels are ``N0`` or ``Z``, ``sliceable`` that they stand over
    ``Rc`` or ``Ro``; ``bar`` marks a bar pairing; ``neg`` flips the sign in
    ``double(...)``.  Each is None or False elsewhere.

    Where ``d.facts`` says they exist, the kernel builds ``least_positive``
    (the least element above zero) and, in a summable base (``Rc``,
    ``Nbar0``), ``repeat_limit``, the sum ``inf`` of a countable repeat;
    each is None elsewhere.  ``residue_kernel(level)`` is the
    kernel of the residues at a level.  ``succ(x)`` is the least element
    above x, ``DENSE`` where elements lie above x but none is least, or
    ``NOTHING_ABOVE``.  In these lexicographic orders a pair steps up its
    residue, then ``step_up(level)``, the least element above the level:
    the level's successor with the least residue a level carries (zero in
    a full product, else the least positive one), ``top`` above a greatest
    level of a bar pairing, and in ``mixed(...)`` the next level that has
    residues.  Bases have no ``residue_kernel`` or ``step_up``, and
    ``double(...)``, neither a level nor a residue structure, no ``succ``.

    ``read(ts)`` reads one literal from a ``TokenStream`` and leaves it
    unchecked: callers check it whole, so a literal cut short is a parse
    error before any shape error; ``parse(ts)`` reads one and checks it.
    Where d pairs an ``N0``/``Z`` level with a base, ``parse`` and ``run``
    match plain literals off the text, and ``whole(text)``, None elsewhere,
    reads a text that is one plain literal with ``parse``'s pattern in one
    ``fullmatch``, or returns a false value.  ``run(ts, op)``, None elsewhere,
    folds the longest run of plain literals joined by op ("+" or "*"; in
    a semifield also ``inv`` of one; a "+" run stops before one a "*"
    follows) in one match, n int parses and one XReal, where n reads build
    n Pairs and XReals.  It returns None if it reads none.  ``body(ts)``
    reads a pair without its parentheses, which flat-tuple sugar
    continues; it is None for bases and ``double(...)``.  ``fmt(v)`` is v's canonical literal.  ``inv(v)``
    inverts a nonzero v of a semiring: a pairing negates its level (in
    ``Z``, or ``N0`` at 0), then inverts its residue.
    """

    __slots__ = ("check", "is_zero", "zero", "cmp", "add", "sum", "mul", "gen", "nonzero",
                 "facts", "semiring", "semifield", "int_levels", "prob_depth", "read", "body", "fmt", "inv",
                 "one", "least_positive", "repeat_limit", "residue_kernel", "succ", "step_up",
                 "base", "parts", "sliceable", "bar", "neg", "run", "parse", "whole")

    def __init__(self, text, facts, check, is_zero, zero, cmp, add, mul, gen, read, fmt, prob_depth=None, sum=None,
                 succ=None, one=None, least_positive=None, repeat_limit=None, residue_kernel=None,
                 step_up=None, body=None, inv=None, parts=None, int_levels=False, sliceable=False, bar=False,
                 nonzero=None, base=None, neg=None, run=None, parse=None, whole=None):
        self.check, self.is_zero, self.zero, self.cmp = check, is_zero, zero, cmp
        self.add, self.gen, self.prob_depth, self.parse = add, gen, prob_depth, parse or (lambda ts: check(read(ts)))
        self.read, self.body, self.fmt, self.run, self.whole = read, body, fmt, run, whole
        self.least_positive, self.repeat_limit = least_positive, repeat_limit
        self.residue_kernel, self.succ, self.step_up = residue_kernel, succ, step_up
        self.base, self.parts, self.int_levels, self.sliceable, self.bar, self.neg = (
            base, parts, int_levels, sliceable, bar, neg)
        self.sum = sum or _ordered_fold(zero, add)
        self.facts, self.semiring, self.semifield = facts, facts.semiring, facts.semifield
        self.mul, self.inv, self.one = (mul, inv, one) if self.semiring else (None,) * 3
        self.nonzero = nonzero or _nonzero(text, gen, is_zero)


def kernel_of(d: StructDesc) -> Kernel:
    """d's kernel, compiled on first use and kept on d."""
    try:
        return d._kernel
    except AttributeError:
        k = d._kernel = _compile(d)
        return k


def _compile(d: StructDesc) -> Kernel:
    text = repr(d)  # not d: a closure over d would tie d and its kernel in a reference cycle
    if isinstance(d, Base):
        return _compile_base(d, text)
    if isinstance(d, (SInsert, BarSInsert, Insert, BarInsert)):
        return _compile_pairing(d, text)
    if isinstance(d, MixedInsert):
        return _compile_mixed(d, text)
    if isinstance(d, DoubleOf):
        return _compile_double(d, text)
    raise ShapeError(f"unknown descriptor {text}")


def _is_adjoined_zero(v) -> bool:
    return v is ZERO


def _nonzero(text, gen, is_zero):
    """nonzero(rng): the first of at most 64 draws ``gen(rng, 0.0)`` that is_zero refuses."""
    def nonzero(rng):
        for _ in range(64):
            v = gen(rng, 0.0)
            if not is_zero(v):
                return v
        raise AssertionError(f"could not generate a nonzero value of {text}")
    return nonzero


def _ordered_fold(zero, add):
    """The left fold of add from zero, in the order given."""
    def sum_(values):
        acc = zero
        for v in values:
            acc = add(acc, v)
        return acc
    return sum_


def _dominant_sum(zero, cmp_level, residue_sum):
    """The sum of pairs: residue_sum(level, residues) at the dominant level; 0 is skipped, top absorbs."""
    ints = cmp_level is _int_cmp  # integer levels are compared inline

    def sum_(values):
        top, group = None, None  # the dominant level so far and the residues there
        for v in values:
            if v is ZERO:
                continue
            if v is TOP:
                return TOP
            if top is not None:
                c = v.level.x - t if ints else cmp_level(v.level, top)  # only its sign is read
                if c < 0:
                    continue
                if c == 0:
                    group.append(v.residue)
                    continue
            top, group = v.level, [v.residue]
            t = top.x if ints else None
        return zero if top is None else Pair(top, residue_sum(top, group))
    return sum_


def _at_bare_zero(ts) -> bool:
    """Whether ts is at a bare 0, the additive identity of any structure: a "0" token with no "/" after it."""
    return ts.peek() == "0" and ts.toks[ts.pos + 1:ts.pos + 2] != ["/"]


def _read_pair(text, bar, zero, body):
    """read over a bare 0, top and a parenthesised pair body."""
    def read(ts):
        tok = ts.peek()
        if tok == "top":
            if not bar:
                raise ShapeError(f"'top' is not an element of {text}")
            ts.pos += 1
            return TOP
        if _at_bare_zero(ts):
            ts.pos += 1
            return zero
        ts.expect("(")
        v = body(ts)
        ts.expect(")")
        return v
    return read


def _read_residue(read, body, ts):
    """A residue, where flat-tuple sugar "(a,b,c)" continues a pair body without its parentheses."""
    if body is not None:
        tok = ts.peek()
        if tok != "(" and tok != "top" and (not _at_bare_zero(ts) or ts.toks[ts.pos + 1:ts.pos + 2] == [","]):
            return body(ts)  # a bare 0 is the residue structure's zero unless a ',' makes it a body's level
    return read(ts)


def _pair_succ(least, residue_kernel, step_up):
    """succ over 0, pairs and top: the least element past 0, then the residue's successor, then step_up."""
    def succ(x):
        if x is TOP:
            return NOTHING_ABOVE
        if x is ZERO:
            return least
        s = residue_kernel(x.level).succ(x.residue)
        if s is NOTHING_ABOVE:
            return step_up(x.level)
        return s if s is DENSE else Pair(x.level, s)
    return succ


# ---------------------------------------------------------------------------
# base structures
# ---------------------------------------------------------------------------

def _below(rng, n):
    """rng.randrange(n) for n >= 1, drawn as CPython draws it: getrandbits(n.bit_length()) until below n."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


_new = object.__new__
_INT_ONE, _XR_ONE, _XR_INF, _XR_ZERO = Scalar(1), Scalar(ONE), Scalar(INF), Scalar(XR_ZERO)
# a base's draws, pre-built and shared: n/d for n in 1..12 and d in 1..8 in Rc and Ro, else the table
_FINITE = tuple(Scalar(XReal(n, d)) for n in range(1, 13) for d in range(1, 9))
_BASE_DRAWS = {  # name: (table, random() cut below which inf or 0 is drawn, inf below this)
    "N0": (tuple(map(Scalar, range(8))), 0, 0), "Z": (tuple(map(Scalar, range(-7, 8))), 0, 0),
    "Rc": (None, 0.18, 0.10), "Ro": (None, 0.18, 0), "Nbar0": (tuple(Scalar(XReal(n)) for n in range(9)), 0.1, 0.1),
}


def _base_draws(name, text):
    """gen and nonzero of a base, which tells a drawn 0 by identity: every 0 drawn is one object."""
    table, cut, inf_p = _BASE_DRAWS[name]
    n, zero = (len(table), table[7 if name == "Z" else 0]) if table else (0, _XR_ZERO)

    def gen(rng, zero_p):
        if cut:
            r = rng.random()
            if r < cut:
                return _XR_INF if r < inf_p else zero
        return table[_below(rng, n)] if table else _FINITE[_below(rng, 12) * 8 + _below(rng, 8)]

    return gen, _nonzero(text, gen, lambda v: v is zero)


def random_xreal(rng):
    """An XReal drawn as in Rc: inf with chance 0.10, 0 with 0.08, else n/d for n in 1..12 and d in 1..8."""
    return kernel_of(RC).gen(rng, 0.0).x


_BASE_SUCC = {
    "N0": lambda x: Scalar(x.x + 1),
    "Z": lambda x: Scalar(x.x + 1),
    "Rc": lambda x: NOTHING_ABOVE if x.x.is_inf else DENSE,
    "Ro": lambda x: DENSE,
    "Nbar0": lambda x: NOTHING_ABOVE if x.x.is_inf else Scalar(x.x + ONE),
}


def _scalar_is_zero(v) -> bool:
    return v.x.is_zero if isinstance(v.x, XReal) else v.x == 0


def _int_cmp(x, y) -> int:
    return (x.x > y.x) - (x.x < y.x)


def _xreal_cmp(x, y) -> int:
    return x.x._cmp(y.x)


def _scalar_add(x, y):
    return Scalar(x.x + y.x)


def _scalar_mul(x, y):
    return Scalar(x.x * y.x)  # XReal has 0 * inf == 0, so zeros need no special case


def _xreal_sum(zero):
    def sum_(values):
        num, den = 0, 1  # the running sum is num/den, den the lcm of the denominators so far
        for v in values:
            x = v.x
            d = x.den
            if d == den:
                num += x.num
            elif d == 0:
                return Scalar(INF)
            else:
                g = gcd(den, d)
                num = num * (d // g) + x.num * (den // g)
                den = den // g * d
        return Scalar(XReal(num, den)) if num else zero
    return sum_


def _compile_base(d: Base, text: str) -> Kernel:
    name = d.name
    integers = name in ("N0", "Z")
    zero = Scalar(0 if integers else XR_ZERO)

    def check(v):
        if not isinstance(v, Scalar):
            raise ShapeError(f"expected a {name} scalar, got {v!r}")
        x = v.x
        if integers:
            if not isinstance(x, int):
                raise ShapeError(f"{name} values are integers, got {v!r}")
            if x < 0 and name == "N0":
                raise ShapeError(f"negative value {v!r} in N0")
        elif not isinstance(x, XReal):
            raise ShapeError(f"{name} values are extended rationals, got {v!r}")
        elif name == "Ro" and x.is_inf:
            raise ShapeError("inf does not belong to [0,inf)")
        elif name == "Nbar0" and not (x.is_inf or x.is_integral):
            raise ShapeError(f"{v!r} is not a natural number or inf")
        return v

    def read(ts):
        if ts.peek() == "top":
            raise ShapeError(f"'top' is not an element of {text}")
        if integers:
            return Scalar(ts.int())
        tok = ts.next()
        if tok == "inf":
            return _XR_INF
        if not is_digits(tok):
            raise ts.error(f"expected a rational or 'inf', found {tok!r}")
        if ts.peek() != "/":
            return Scalar(XReal(int(tok)))
        ts.pos += 1
        den = ts.next()
        if not is_digits(den) or int(den) == 0:
            raise ts.error(f"bad denominator {den!r}")
        return Scalar(XReal(int(tok), int(den)))

    def inv(v):
        if integers:
            if v.x == 1:
                return v
            raise DomainError(f"{v!r} is not invertible in {text}")
        if v.x.is_inf:
            raise DomainError("inf has no multiplicative inverse")
        return Scalar(ONE / v.x)

    gen, nonzero = _base_draws(name, text)
    unit, f = _INT_ONE if integers else _XR_ONE, d.facts
    return Kernel(text, f, check, _scalar_is_zero, zero, _int_cmp if integers else _xreal_cmp, _scalar_add,
                  _scalar_mul, gen, read, lambda v: str(v.x), None, None if integers else _xreal_sum(zero),
                  _BASE_SUCC[name], unit, unit if f.least_positive else None, _XR_INF if f.summable else None,
                  inv=inv, nonzero=nonzero, base=name)


# ---------------------------------------------------------------------------
# insertions and s-insertions
# ---------------------------------------------------------------------------

# a base's payload x passes its check if type(x) is int and x >= lo, or if type(x) is XReal, x.num >= lo and
# dlo <= x.den <= dhi (an XReal as its constructor builds it: int fields, in lowest terms)
_PAYLOADS = {"N0": (int, 0, 0, 0), "Z": (int, -float("inf"), 0, 0), "Rc": (XReal, 0, 0, float("inf")),
             "Ro": (XReal, 0, 1, float("inf")), "Nbar0": (XReal, 0, 0, 1)}


def _fused_check(a, kb, nonzero_b, composed):
    """The check of a pairing of base a with kb's structure: one inline test, else the composed check.

    The test takes exact types (so no bool or subclass) and, for a residue
    that must be nonzero, a positive integer or numerator; whatever it
    accepts, the composed check accepts too, and it hands everything else
    over, so every verdict and every error is the composed check's.  Over a
    residue that is no base, whose zero is ``ZERO``, it tests the level and
    the ``ZERO`` residue inline and leaves the residue to kb's check, whose
    error the composed check would raise next.
    """
    ta, lo_a, dlo_a, dhi_a = _PAYLOADS[a]
    int_a = ta is int
    if not kb.base:
        check_b = kb.check

        def nested(v):
            if type(v) is Pair:
                x, y = v.level, v.residue
                if type(x) is Scalar and y is not ZERO:
                    x = x.x
                    if type(x) is ta and (x >= lo_a if int_a else dlo_a <= x.den <= dhi_a):
                        check_b(y)
                        return v
            return composed(v)
        return nested
    tb, lo_b, dlo_b, dhi_b = _PAYLOADS[kb.base]
    int_b, lo_b = tb is int, max(lo_b, 1) if nonzero_b else lo_b  # Z is never a residue

    def check(v):
        if type(v) is Pair:
            x, y = v.level, v.residue
            if type(x) is Scalar and type(y) is Scalar:
                x, y = x.x, y.x
                if (type(x) is ta and (x >= lo_a if int_a else dlo_a <= x.den <= dhi_a) and type(y) is tb
                        and (y >= lo_b if int_b else dlo_b <= y.den <= dhi_b and y.num >= lo_b)):
                    return v
        return composed(v)
    return check


def _fused_gen(level, kb, full, bar, b):
    """gen of an ``N0``/``Z`` level paired with kb's structure b: the composed draw's values from the same rng calls.

    It binds the rng's two draws once and draws the level off its table
    inline.  In an insertion over ``Rc``/``Ro`` it draws the nonzero residue
    inline too, a 0 again as ``nonzero`` does; over an insertion it calls
    kb's ``gen(rng, 0.0)``, which draws no 0, where the composed draw calls
    ``nonzero``.
    """
    levels = _BASE_DRAWS[level][0]
    n = len(levels)
    k = n.bit_length()  # _below(rng, n)'s bits; each _below below draws 4 bits, for 12 and for 8 alike
    inline = not full and kb.base in ("Rc", "Ro")
    _, cut, inf_p = _BASE_DRAWS[kb.base if inline else "Rc"]
    # a residue not drawn inline: with gen in a full product, else with nonzero, or gen(rng, 0.0) over an insertion
    gen_b, p = (None, None) if inline else (kb.gen, ZERO_P if full else 0.0) if full or kb.parts else (
        lambda rng, p, nonzero=kb.nonzero: nonzero(rng), None)

    def gen(rng, zero_p):
        random = rng.random
        if not full and random() < zero_p:
            return ZERO
        if bar and random() < 0.05:
            return TOP
        bits = rng.getrandbits
        i = bits(k)
        while i >= n:
            i = bits(k)
        v = _new(Pair)  # Pair(...) without its __init__ frame, a third of a draw's time
        if gen_b:
            v.level, v.residue = levels[i], gen_b(rng, p)
            return v
        u, tries = random(), 1
        while u < cut:  # inf, or a 0 that is drawn again: 64 draws in all
            if u < inf_p:
                v.level, v.residue = levels[i], _XR_INF
                return v
            if tries == 64:
                raise AssertionError(f"could not generate a nonzero value of {b!r}")
            u, tries = random(), tries + 1
        j = bits(4)
        while j >= 12:
            j = bits(4)
        m = bits(4)
        while m >= 8:
            m = bits(4)
        v.level, v.residue = levels[i], _FINITE[j * 8 + m]
        return v
    return gen


_POSSESSIVE = sys.version_info >= (3, 11)  # re takes possessive quantifiers from Python 3.11


@cache
def _patterns(signed, lo, slash, semifield):
    """A plain literal, a run's literal without spaces (in a semifield also inv(...) of one), a "*" run, a "+" run."""
    def pair(g):  # g opens a group: "(" captures, "(?:" does not; no two \s* in it meet across an optional part
        sign, den = rf"(?:{g}-)\s*)?" if signed else g + ")", rf"(?:/\s*{g}[1-9][0-9]*)\s*)?" if slash else g + ")"
        return rf"\(\s*{sign}{g}[0-9]+)\s*,\s*{g}[{lo}-9][0-9]*)\s*{den}\)"

    def spaced(p):  # no space or digit run is followed by another, so keeping each whole keeps every match's span
        return re.compile(p.replace(r"\s*", r"\s*+").replace("[0-9]*", "[0-9]*+").replace("[0-9]+", "[0-9]++")
                          if _POSSESSIVE else p)
    lit = rf"(?:(inv)\s*\(\s*)?{pair('(')}(?(1)\s*\))" if semifield else "()" + pair("(")
    any_ = rf"(?:{pair('(?:')}|inv\s*\(\s*{pair('(?:')}\s*\))" if semifield else pair("(?:")
    return (spaced(rf"\s*{pair('(')}\s*"), re.compile(lit.replace(r"\s*", "")),  # all but lit end past spaces
            spaced(rf"\s*{any_}(?:\s*\*\s*{any_})*\s*"),
            spaced(rf"\s*{any_}(?!\s*\*)(?:\s*\+\s*{any_}(?!\s*\*))*\s*"))  # no literal that a "*" follows


def _plain_pair(m, rational):
    """The pair a match of a plain literal's pattern reads: a rational residue unless the base is N0."""
    neg, x, y, den = m.groups()
    residue = XReal(int(y), int(den)) if den else XReal(int(y)) if rational else int(y)
    return Pair(Scalar(-int(x) if neg else int(x)), Scalar(residue))


def _fused_run(level, base, full, facts, read, check):
    """``parse``, ``run`` and ``whole`` of an integer level paired with a base, off the text (see ``Kernel``).

    Each matches plain literals the check takes: no "-" on an ``N0`` level, in an insertion no 0-led residue,
    a "/" only over ``Rc``/``Ro``, no 0-led denominator.  At anything else ``parse`` hands over to
    ``check(read(ts))`` with the stream unmoved, so every error is the composed one's, and a run stops;
    ``whole`` leaves such a text, and one that is no str or longer than ``MAX_DIGITS``, to the token stream.
    """
    rational, semiring = base != "N0", facts.semiring
    one, lit, mul_run, add_run = _patterns(level == "Z", "0" if full else "1", base in ("Rc", "Ro"), facts.semifield)

    def parse(ts):
        m = ts.match(one)
        return check(read(ts)) if m is None else _plain_pair(m, rational)

    def whole(text):  # too short a str for a digit run past the limit, which the token stream reports
        m = isinstance(text, str) and len(text) <= MAX_DIGITS and one.fullmatch(text)
        return m and _plain_pair(m, rational)

    def run(ts, op):
        m = ts.match(add_run) if op == "+" else semiring and ts.match(mul_run)
        if not m:  # a "*" run outside a semiring reads nothing
            return None
        lev = None
        for inv, neg, x, y, den in lit.findall("".join(m.group().split())):  # off the run's text without spaces
            x, num, den = -int(x) if (not neg) != (not inv) else int(x), int(y), int(den) if den else 1
            num, den = (den, num) if inv else (num, den)  # inv negates the level and turns the residue over
            if lev is None or op == "+" and x > lev:
                lev, n, d = x, num, den
            elif op == "*":
                lev, n, d = lev + x, n * num, d * den
            elif x == lev:
                n, d = n * den + num * d, d * den
        return Pair(Scalar(lev), Scalar(XReal(n, d) if rational else n))
    return parse, run, whole


def _compile_pairing(d, text: str) -> Kernel:
    ka, kb = kernel_of(d.a), kernel_of(d.b)
    check_a, check_b, zero_a, zero_b = ka.check, kb.check, ka.is_zero, kb.is_zero
    cmp_a, cmp_b, add_a, add_b, sum_b, mul_b, succ_a = ka.cmp, kb.cmp, ka.add, kb.add, kb.sum, kb.mul, ka.succ
    read_a, read_b, body_b, fmt_a, fmt_b, inv_b = ka.read, kb.read, kb.body, ka.fmt, kb.fmt, kb.inv
    gen_a, gen_b, nonzero_b = ka.gen, kb.gen, kb.nonzero
    bar, full = d.bar, d.full  # a full product keeps the pair of zeros
    b = d.b
    prob_depth = None
    if not (full or bar) and ka.base == "Z":
        inner = 0 if kb.base == "Ro" else kb.prob_depth
        prob_depth = None if inner is None else inner + 1

    if full:
        zero = Pair(ka.zero, kb.zero)

        def is_zero(v):
            return v is ZERO or (isinstance(v, Pair) and zero_a(v.level) and zero_b(v.residue))
    else:
        zero, is_zero = ZERO, _is_adjoined_zero

    def check(v):
        if v is ZERO and not full:
            return v
        if v is TOP:
            if bar:
                return v
            raise ShapeError("top only exists in bar structures")
        if not isinstance(v, Pair):
            raise ShapeError(f"expected a pair, got {v!r}" if full else f"expected a pair or 0, got {v!r}")
        check_a(v.level)
        check_b(v.residue)
        if not full and zero_b(v.residue):
            raise ShapeError(f"residue of {v!r} is the zero of {b!r}; insertion removes it")
        return v

    if ka.base and (kb.base or full or kb.is_zero is _is_adjoined_zero):
        check = _fused_check(ka.base, kb, not full, check)

    def cmp(x, y):
        if x is TOP:
            return EQ if y is TOP else GT
        if y is TOP:
            return LT
        if x is ZERO:  # only an insertion's values are ZERO
            return EQ if y is ZERO else LT
        if y is ZERO:
            return EQ if x is ZERO else GT
        return cmp_a(x.level, y.level) or cmp_b(x.residue, y.residue)

    def add(x, y):
        if x is TOP or y is TOP:
            return TOP
        if x is ZERO:
            return y
        if y is ZERO:
            return x
        c = cmp_a(x.level, y.level)
        if c:
            return x if c > 0 else y
        return Pair(x.level, add_b(x.residue, y.residue))

    def mul(x, y):
        if x is ZERO or y is ZERO:
            return ZERO
        if x is TOP or y is TOP:
            return TOP
        return Pair(add_a(x.level, y.level), mul_b(x.residue, y.residue))

    if ka.base in ("N0", "Z"):
        gen = _fused_gen(ka.base, kb, full, bar, b)
    else:
        def gen(rng, zero_p):
            if not full and rng.random() < zero_p:
                return ZERO
            if bar and rng.random() < 0.05:
                return TOP
            return Pair(gen_a(rng, ZERO_P), gen_b(rng, ZERO_P) if full else nonzero_b(rng))

    least_positive = Pair(ka.zero, kb.least_positive) if d.facts.least_positive else None
    least_b = kb.zero if full else kb.least_positive  # the least residue a level carries

    def step_up(level):
        s = succ_a(level)
        if s is NOTHING_ABOVE:
            return TOP if bar else s
        return DENSE if s is DENSE or least_b is None else Pair(s, least_b)

    def residue_kernel(level):
        return kb

    def body(ts):
        level = read_a(ts)
        ts.expect(",")
        return Pair(level, _read_residue(read_b, body_b, ts))

    def fmt(v):
        return "top" if v is TOP else "0" if is_zero(v) else f"({fmt_a(v.level)},{fmt_b(v.residue)})"

    a, int_level = d.a, ka.base

    def inv(v):
        if v is TOP:
            raise DomainError("top has no multiplicative inverse")
        level = v.level
        if int_level == "Z":
            level = Scalar(-level.x)
        elif int_level != "N0" or level.x:  # N0 negates only its 0
            raise DomainError(f"level {level!r} cannot be negated in {a!r}")
        return Pair(level, inv_b(v.residue))

    # positional: keywords would cost about 0.5 us more per compile, and each `eval` compiles its structure
    one = Pair(ka.zero, kb.one)  # dropped outside semirings
    int_levels = not full and int_level in ("N0", "Z")
    read, parse, run, whole = _read_pair(text, bar, zero, body), None, None, None
    if int_level in ("N0", "Z") and kb.base:
        parse, run, whole = _fused_run(int_level, kb.base, full, d.facts, read, check)
    return Kernel(text, d.facts, check, is_zero, zero, cmp, add, mul, gen, read, fmt, prob_depth,
                  _dominant_sum(zero, cmp_a, lambda level, residues: sum_b(residues)),
                  _pair_succ(DENSE if least_positive is None else least_positive, residue_kernel, step_up),
                  one, least_positive, None, residue_kernel, step_up, body, inv, None if full else (ka, kb),
                  int_levels, int_levels and kb.base in ("Rc", "Ro"), bar, None, None, None, run, parse, whole)


# ---------------------------------------------------------------------------
# mixed insertions
# ---------------------------------------------------------------------------

def _compile_mixed(d: MixedInsert, text: str) -> Kernel:
    lo, hi, naturals = d.lo, d.hi, d.base.name == "N0"
    subs = {lev: kernel_of(sd) for lev, sd in d.table}
    default = None if d.default is None else kernel_of(d.default)

    def sub(lev):
        """The kernel of level lev's residue structure; None outside the range."""
        if lo is not None and lev < lo or hi is not None and lev > hi or naturals and lev < 0:
            return None
        return subs.get(lev, default)

    def check(v):
        if v is ZERO:
            return v
        if not isinstance(v, Pair):
            raise ShapeError(f"expected a pair or 0, got {v!r}")
        if not (isinstance(v.level, Scalar) and isinstance(v.level.x, int)):
            raise ShapeError(f"mixed insertion level must be an integer, got {v.level!r}")
        k = sub(v.level.x)
        if k is None:
            raise ShapeError(f"level {v.level.x} lies outside the mixed insertion range")
        k.check(v.residue)
        if k.is_zero(v.residue):
            raise ShapeError("residue is the zero of its level structure")
        return v

    def cmp(x, y):
        if x is ZERO or y is ZERO:
            return (y is ZERO) - (x is ZERO)
        lx, ly = x.level.x, y.level.x
        if lx != ly:
            return GT if lx > ly else LT
        return sub(lx).cmp(x.residue, y.residue)

    def add(x, y):
        if x is ZERO or y is ZERO:
            return y if x is ZERO else x
        lx, ly = x.level.x, y.level.x
        if lx != ly:
            return x if lx > ly else y
        return Pair(x.level, sub(lx).add(x.residue, y.residue))

    # draw among the levels of [glo, ghi] that carry a residue structure,
    # without walking the range (it may span billions of levels); on a
    # range without gaps this consumes the rng as randrange(glo, ghi + 1) would;
    # where [glo, ghi] holds none, from the first level on, or among every listed one
    glo = (0 if naturals else -3 if hi is None else hi - 4) if lo is None else lo
    ghi = glo + 4 if hi is None else hi
    if default is not None:
        start = glo if d.first is None else d.first
        width = (max(ghi, start) if hi is None else hi) + 1 - start

        def level(rng):
            return start + _below(rng, width)
    else:
        levels = sorted(lev for lev in subs if glo <= lev <= ghi) or sorted(subs)
        width = len(levels)

        def level(rng):
            return levels[_below(rng, width)]

    def gen(rng, zero_p):
        if rng.random() < zero_p or width < 1:  # no level carries residues: 0 is the only element
            return ZERO
        lev = level(rng)
        return Pair(Scalar(lev), sub(lev).nonzero(rng))

    listed = sorted(subs)  # validation keeps every listed level in the range

    def first_from(lev):
        """The least element at the least level from lev on that carries residues."""
        if default is None:
            lev = next((x for x in listed if x >= lev), lev)
        k = sub(lev)
        least = None if k is None else k.least_positive
        return NOTHING_ABOVE if k is None else DENSE if least is None else Pair(Scalar(lev), least)

    def residue_kernel(level):
        return sub(level.x)

    def step_up(level):
        return first_from(level.x + 1)

    def body(ts):
        lev = ts.int()
        k = sub(lev)
        if k is None:
            raise ShapeError(f"level {lev} lies outside the mixed insertion range")
        ts.expect(",")
        return Pair(Scalar(lev), _read_residue(k.read, k.body, ts))

    def fmt(v):
        return "0" if v is ZERO else f"({v.level.x},{sub(v.level.x).fmt(v.residue)})"

    least = DENSE if d.first is None else first_from(d.first)
    return Kernel(text, d.facts, check, _is_adjoined_zero, ZERO, cmp, add, None, gen,
                  _read_pair(text, False, ZERO, body), fmt, residue_kernel=residue_kernel, step_up=step_up, body=body,
                  sum=_dominant_sum(ZERO, _int_cmp, lambda level, residues: sub(level.x).sum(residues)),
                  succ=_pair_succ(least, residue_kernel, step_up),
                  least_positive=least if d.facts.least_positive else None)


# ---------------------------------------------------------------------------
# signed values (double structures)
# ---------------------------------------------------------------------------

def _split_int_level(x: Value):
    if not (isinstance(x, Pair) and isinstance(x.level, Scalar) and isinstance(x.level.x, int)
            and isinstance(x.residue, Scalar) and isinstance(x.residue.x, XReal)):
        raise CapabilityError("signed addition needs (integer level, rational residue) magnitudes")
    return x.level.x, x.residue.x


def _compile_double(d: DoubleOf, text: str) -> Kernel:
    ki = kernel_of(d.inner)
    check_i, zero_i, cmp_i, add_i, nonzero_i = ki.check, ki.is_zero, ki.cmp, ki.add, ki.nonzero
    read_i, fmt_i = ki.read, ki.fmt

    def check(v):
        if v is ZERO:
            return v
        if not isinstance(v, Signed):
            raise ShapeError(f"expected a signed value or 0, got {v!r}")
        if v.sign not in (1, -1):
            raise ShapeError(f"bad sign {v.sign!r}")
        check_i(v.mag)
        if zero_i(v.mag):
            raise ShapeError("signed magnitude must be nonzero")
        return v

    def cmp(x, y):
        sx = 0 if x is ZERO else x.sign
        sy = 0 if y is ZERO else y.sign
        if sx != sy:
            return GT if sx > sy else LT
        return 0 if sx == 0 else sx * cmp_i(x.mag, y.mag)

    def add(x, y):
        # sign-aware, in operand order: this addition is not associative
        if x is ZERO or y is ZERO:
            return y if x is ZERO else x
        if x.sign == y.sign:
            return Signed(x.sign, add_i(x.mag, y.mag))
        pos, neg = (x, y) if x.sign > 0 else (y, x)
        i, s = _split_int_level(pos.mag)
        j, t = _split_int_level(neg.mag)
        if i != j:
            return pos if i > j else neg
        c = s._cmp(t)
        if c == 0:
            return ZERO
        if c > 0:
            return Signed(1, Pair(Scalar(i), Scalar(s.minus(t))))
        return Signed(-1, Pair(Scalar(i), Scalar(t.minus(s))))

    def gen(rng, zero_p):
        if rng.random() < zero_p:
            return ZERO
        return Signed(rng.choice((1, -1)), nonzero_i(rng))

    def read(ts):
        sign = 1
        if ts.peek() in ("+", "-"):
            sign = -1 if ts.next() == "-" else 1
        if sign == 1 and _at_bare_zero(ts):
            ts.pos += 1
            return ZERO
        return Signed(sign, read_i(ts))

    def fmt(v):
        return "0" if v is ZERO else fmt_i(v.mag) if v.sign > 0 else "-" + fmt_i(v.mag)

    return Kernel(text, d.facts, check, _is_adjoined_zero, ZERO, cmp, add, None, gen, read, fmt,
                  neg=lambda v: v if v is ZERO else Signed(-v.sign, v.mag))
