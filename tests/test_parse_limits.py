"""parse_poly refuses exponents above its documented cap, without computing."""

import time

import pytest

from chowcalc.poly import MAX_EXPONENT, ParseError, Signature, parse_poly

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
