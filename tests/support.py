"""Helpers shared by the test modules."""

from lexiring.descriptors import parse_struct
from lexiring.values import parse_value


def pv(struct, text):
    """The literal text, parsed and checked in the structure written struct."""
    return parse_value(parse_struct(struct), text)
