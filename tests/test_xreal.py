import random

import pytest

from lexiring.descriptors import RC
from lexiring.errors import DomainError, ParseError
from lexiring.values import parse_value
from lexiring.xreal import INF, ONE, ZERO, XReal


def test_addition_examples():
    assert XReal(1, 4) + XReal(1, 2) == XReal(3, 4)
    assert INF + XReal(7, 3) == INF
    assert XReal(7, 3) + INF == INF
    assert ZERO + ZERO == ZERO


def test_multiplication_examples():
    assert XReal(3, 4) * XReal(2) == XReal(3, 2)
    assert INF * XReal(1, 2) == INF
    assert ZERO * INF == ZERO
    assert INF * ZERO == ZERO


def test_division_examples():
    assert XReal(3, 4) / XReal(1, 2) == XReal(3, 2)
    assert XReal(1) / XReal(3) == XReal(1, 3)
    for x in (XReal(5, 7), XReal(2), XReal(1, 9)):
        assert x / x == ONE


def test_division_domain_errors():
    with pytest.raises(DomainError):
        XReal(1) / ZERO
    with pytest.raises(DomainError):
        XReal(1) / INF
    with pytest.raises(DomainError):
        INF / XReal(2)


def test_lowest_terms_and_equality():
    assert XReal(6, 8) == XReal(3, 4)
    assert hash(XReal(6, 8)) == hash(XReal(3, 4))
    assert XReal(0, 5) == ZERO


def test_order():
    assert ZERO < XReal(1, 1000) < XReal(1) < INF
    assert not INF < INF
    assert XReal(2, 3) <= XReal(2, 3)


def test_negative_rejected():
    with pytest.raises(DomainError):
        XReal(-1, 2)


def test_parse_and_format_roundtrip():
    # function documents read real values as Rc literals
    for text in ("0", "3", "3/4", "17/5", "inf"):
        assert str(parse_value(RC, text).x) == text
    assert parse_value(RC, "6/8").x == XReal(3, 4)
    for text in ("1/0", "-2", "a/b", "\u00b2", "1/\u00b2"):  # superscript two: str.isdigit is true, int() fails
        with pytest.raises(ParseError):
            parse_value(RC, text)


def _random_xreal(rng):
    if rng.random() < 0.1:
        return INF
    return XReal(rng.randrange(0, 12), rng.randrange(1, 9))


def test_field_laws_random():
    rng = random.Random(7)
    for _ in range(2000):
        a, b, c = (_random_xreal(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_order_compatibility_random():
    rng = random.Random(8)
    for _ in range(2000):
        a, b, c = (_random_xreal(rng) for _ in range(3))
        if a <= b:
            assert a + c <= b + c
            assert a * c <= b * c


def test_minus():
    assert XReal(3, 4).minus(XReal(1, 4)) == XReal(1, 2)
    assert INF.minus(XReal(5)) == INF
    with pytest.raises(DomainError):
        XReal(1, 4).minus(XReal(1, 2))
    with pytest.raises(DomainError):
        INF.minus(INF)
