"""parse_poly refuses exponents and literals above their documented caps,
without computing, and with the position of the offending token."""

import time
from fractions import Fraction

import pytest

from chowcalc.poly import (MAX_DIGITS, MAX_EXPONENT, ParseError, Signature,
                           parse_poly)

H = Signature.make([("h", 1)])


def test_huge_exponent_raises_at_once():
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse_poly("h^100000", H)
    assert time.perf_counter() - start < 0.5
    assert info.value.pos == 2
    assert "cap %d" % MAX_EXPONENT in str(info.value)


@pytest.mark.parametrize("text, pos", [
    ("h^%d" % (MAX_EXPONENT + 1), 2),
    ("2*h + (h + 1)^" + "9" * 5000, 14),
])
def test_exponents_past_the_cap_give_their_position(text, pos):
    with pytest.raises(ParseError) as info:
        parse_poly(text, H)
    assert info.value.pos == pos


def test_small_and_capped_exponents_still_parse():
    h = parse_poly("h", H)
    assert parse_poly("h^5", H) == h ** 5
    assert parse_poly("h^005", H) == h ** 5
    assert parse_poly("h^0", H) == parse_poly("1", H)
    assert parse_poly("h^%d" % MAX_EXPONENT, H) == h ** MAX_EXPONENT


@pytest.mark.parametrize("text, pos", [
    ("1" * 5000, 0),
    ("h + " + "7" * 5000 + "*h", 4),
    ("h - 1/" + "3" * 5000, 6),
    ("(" + "2" * 4500 + "/3)*h", 1),
])
def test_long_literals_give_their_position(text, pos):
    with pytest.raises(ParseError) as info:
        parse_poly(text, H)
    assert info.value.pos == pos
    assert "%d digits" % MAX_DIGITS in str(info.value)


def test_ordinary_and_capped_literals_still_parse():
    h = parse_poly("h", H)
    assert parse_poly("12*h - 3/4", H) == 12 * h - Fraction(3, 4)
    assert parse_poly("007/010", H) == parse_poly("7/10", H)
    big = "9" * MAX_DIGITS
    assert parse_poly(big, H).constant_term() == int(big)
    assert parse_poly("0" * 500 + "5", H).constant_term() == 5
    assert parse_poly("1/" + big, H).constant_term() == Fraction(1, int(big))
