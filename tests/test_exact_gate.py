"""One gate for exact numbers: every public entry point that takes a number
admits only ints and Fractions, refusing floats, bools, strings and
Decimals, and linear algebra stores entries like Poly does.
"""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from chowcalc import poly
from chowcalc.bundles import grr_push_curve
from chowcalc.linalg import det, identity, inverse, mat, rref
from chowcalc.pencil import (PENCIL_SIG, SkewPencil, graph_plane,
                             gw_residuals, is_isotropic, plucker_abxy,
                             presentation_matrix, rank_two_point,
                             symplectic_product)
from chowcalc.poly import Poly, Signature, parse_poly
from chowcalc.rings import presented, projective_space

BAD = [0.5, True, "1/2", Decimal("0.1")]


def _put(vector, i, value):
    out = list(vector)
    out[i] = value
    return out


def _presented(n):
    sig = Signature.make([("x", 1)])
    x = Poly.variable(sig, "x")
    return presented("P1", sig, [x * x], 1, x, n)


def _grr(degree):
    p5 = projective_space(5)
    h = p5.var("h")
    return grr_push_curve(p5, 0, 3 * h ** 4, h ** 5, degree)


def _residuals_with_a(bad):
    _, x, y, b = rank_two_point()
    return gw_residuals(bad, x, y, b)


def _residuals_with_x(bad):
    a, x, y, b = rank_two_point()
    return gw_residuals(a, [_put(x[0], 0, bad)] + x[1:], y, b)


E = identity(6)

PROBES = {
    "Poly.evaluate": lambda bad: parse_poly("u^2 + v", PENCIL_SIG).evaluate(
        {"u": bad, "v": 1}),
    "symplectic_product": lambda bad: symplectic_product(_put(E[0], 0, bad),
                                                         E[3]),
    "is_isotropic": lambda bad: is_isotropic([E[0], _put(E[1], 4, bad)]),
    "plucker_abxy": lambda bad: plucker_abxy([E[0], E[1], _put(E[2], 5, bad)]),
    "graph_plane": lambda bad: graph_plane([[1, 0, 0], [0, bad, 0],
                                            [0, 0, 1]]),
    "gw_residuals(a)": _residuals_with_a,
    "gw_residuals(X)": _residuals_with_x,
    "presentation_matrix(a)": lambda bad: presentation_matrix(bad,
                                                              [1, 2, 3, 4, 5]),
    "presentation_matrix(y)": lambda bad: presentation_matrix(
        2, [1, 2, bad, 4, 5]),
    "SkewPencil.rank_at": lambda bad: SkewPencil.built_in().rank_at(bad, 1),
    "grr_push_curve": _grr,
    "presented(n=...)": _presented,
}


@pytest.mark.parametrize("bad", BAD, ids=["float", "bool", "str", "decimal"])
@pytest.mark.parametrize("probe", sorted(PROBES))
def test_entry_points_refuse_floats_and_bools(probe, bad):
    with pytest.raises(TypeError):
        PROBES[probe](bad)


@pytest.mark.parametrize("bad", ["1/2", "0.1", "3", Decimal("0.1"),
                                 Decimal(3), True, False, 1.0, None, [1]],
                         ids=repr)
def test_the_gate_parses_and_converts_nothing(bad):
    sig = Signature.make([("x", 1)])
    ring = projective_space(3)
    for probe in (poly.coefficient, lambda c: Poly.constant(sig, c),
                  lambda c: Poly(sig, {(1,): c}), ring.cls, ring.const,
                  lambda c: ring.var("h") * c, lambda c: ring.one() + c,
                  lambda c: poly.exact_div(1, c)):
        with pytest.raises(TypeError):
            probe(bad)


def test_the_gate_admits_ints_and_fractions_in_stored_form():
    assert poly.coefficient(3) == 3
    assert type(poly.coefficient(Fraction(6, 2))) is int
    assert poly.coefficient(Fraction(1, 2)) == Fraction(1, 2)
    ring = projective_space(3)
    assert ring.cls(Fraction(1, 2)).rep == Poly.constant(ring.sig,
                                                         Fraction(1, 2))


def test_the_same_entry_points_take_exact_numbers():
    half = Fraction(1, 2)
    assert parse_poly("u^2 + v", PENCIL_SIG).evaluate({"u": half, "v": 1}) \
        == Fraction(5, 4)
    assert parse_poly("4*u^2", PENCIL_SIG).evaluate({"u": half, "v": 0}) == 1
    assert type(parse_poly("4*u^2", PENCIL_SIG).evaluate(
        {"u": half, "v": 0})) is int
    assert symplectic_product(_put(E[0], 0, half), _put(E[3], 3, 2)) == 1
    assert is_isotropic([E[0], _put(E[1], 4, half)])
    a, x, y, b = rank_two_point()
    assert all(r == 0 for r in gw_residuals(a, x, y, b))
    assert presentation_matrix(half, [1, 2, 3, 4, 5])[0][0] == half
    assert SkewPencil.built_in().rank_at(Fraction(3), -2) == 4
    assert _presented(Fraction(4, 2)).top == {(1,): 2}
    assert type(_presented(Fraction(4, 2)).top[(1,)]) is int


def test_as_fraction_is_gone():
    assert not hasattr(poly, "as_fraction")


@pytest.mark.parametrize("a, b", [(0.5, 2), (Fraction(1, 2), 0.5),
                                  (3, 1.5), (0.5, Fraction(1, 3))])
def test_exact_div_refuses_floats(a, b):
    with pytest.raises(TypeError):
        poly.exact_div(a, b)


def is_stored(c):
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _random_matrix(rng, n, m):
    # denominators that often cancel, so Fractions with denominator 1 would
    # appear wherever a value is not put back in stored form
    return [[Fraction(rng.randint(-6, 6) * rng.choice((1, 2, 3)),
                      rng.choice((1, 1, 2, 3))) for _ in range(m)]
            for _ in range(n)]


def test_linalg_returns_stored_form():
    rng = random.Random(17)
    inverted = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        a = _random_matrix(rng, n, rng.randint(1, 5))
        assert all(is_stored(c) for row in mat(a) for c in row)
        assert all(is_stored(c) for row in rref(a)[0] for c in row)
        sq = _random_matrix(rng, n, n)
        d = det(sq)
        assert is_stored(d)
        if d:
            inv = inverse(sq)
            assert all(is_stored(c) for row in inv for c in row)
            inverted += 1
    assert inverted > 50
    assert all(type(c) is int for row in identity(3) for c in row)
    assert type(det([[Fraction(2), Fraction(1, 2)], [0, Fraction(3, 2)]])) \
        is int
