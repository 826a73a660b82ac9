"""Exception hierarchy shared by every module.

All failures raised by the library derive from :class:`LexiringError` so
callers (and the CLI) can distinguish library errors from bugs, but one:
printing a number longer than ``sys.get_int_max_str_digits()`` digits
raises ``ValueError`` unless the caller lifts that limit, as ``cli.main`` does.
"""


class LexiringError(Exception):
    """Base class for all library errors."""


class ParseError(LexiringError):
    """Malformed structure grammar or element literal.

    Carries the offending text and a 0-based position when known; the message
    names them only when read, as the expression reader drops most literal errors.
    """

    def __init__(self, message, text=None, pos=None):
        super().__init__(message)
        self.text = text
        self.pos = pos

    def __str__(self):
        if self.text is None or self.pos is None:
            return super().__str__()
        return f"{super().__str__()} (at position {self.pos} in {self.text!r})"


class ShapeError(LexiringError):
    """A value does not have the shape demanded by its descriptor."""


class CapabilityError(LexiringError):
    """An operation was requested on a structure that does not support it."""


class DomainError(LexiringError):
    """Operation applied outside its mathematical domain (e.g. level of zero)."""


class NotSummableError(LexiringError):
    """A countable sum cannot be evaluated inside the given structure."""


class NotRepresentableError(LexiringError):
    """A least upper bound does not exist inside the given structure."""


class InfiniteMassError(LexiringError):
    """A probability construction produced an infinite value."""


class InconsistentSlicesError(LexiringError):
    """Slice data does not arise from any measure (ambiguous top level)."""
