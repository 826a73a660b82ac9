"""Shape checks and canonical elements of described structures, plus literal parsing/formatting.

The value variants (``ZERO``, ``TOP``, ``Scalar``, ``Pair``, ``Signed``)
are defined in ``kernel`` and re-exported here.  ``check_value``,
``is_zero``, ``zero``, ``one``, ``parse_value`` and ``format_value`` are
lookups into the descriptor's kernel, which is compiled lazily, once per
descriptor object: ``parse_value`` reads and checks a literal with the
kernel's ``parse``, and ``format_value`` is its ``fmt``.  A text that is
one plain literal of an integer level over a base, such as ``(-1,3/7)``
in ``P``, is read whole by the kernel's ``whole``, in one match of the
fused reader's pattern; any other text goes through a ``TokenStream``.

Literals: ``0``, ``top``, ``inf``, integers, ``p/q``, nested tuples, and
a leading ``-`` under double().  Flat tuples like ``(-1,2,3)`` are
accepted as sugar for right-nested shapes; canonical output is nested.
"""

from __future__ import annotations

from .descriptors import TokenStream
from .errors import ShapeError
from .kernel import TOP, ZERO, Pair, Scalar, Signed, Value, kernel_of
from .xreal import XReal


# ---------------------------------------------------------------------------
# canonical elements
# ---------------------------------------------------------------------------

def zero(d) -> Value:
    """The additive identity of d, in its structural representation."""
    return kernel_of(d).zero


def is_zero(d, v: Value) -> bool:
    """Whether v is the additive identity of d; ShapeError unless v is well-shaped for d."""
    k = kernel_of(d)
    return k.is_zero(k.check(v))


def one(d) -> Value:
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

def check_value(d, v: Value) -> Value:
    """Raise ShapeError unless v is well-shaped for d."""
    return kernel_of(d).check(v)


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

def parse_value(d, text: str) -> Value:
    """The literal text, read and checked whole by d's kernel."""
    k = kernel_of(d)
    v = k.whole and k.whole(text)
    if v:
        return v
    ts = TokenStream(text)
    v = k.parse(ts)
    ts.done()
    return v


def format_value(d, v: Value) -> str:
    """Canonical literal: nested tuples, '0' for any additive identity; ``ValueError`` past the int-to-str limit."""
    return kernel_of(d).fmt(v)
