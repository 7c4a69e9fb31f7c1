"""Coefficients are integers over one denominator, and every division is
exact.

A Poly stores nonzero int numerators over one int denominator > 0, with
no factor common to the denominator and every numerator.  Its `terms`
view holds each coefficient in stored form: an `int` when it is integral
and a `Fraction` whose denominator is not 1 when it is not.  Every Poly
built during a full slow `verify run`, and during products of rational
classes on `B`, is checked; every Poly, whichever operation makes it,
passes through `Poly.__init__`, where the fixture sees it.
"""

from fractions import Fraction
from math import gcd

import pytest

from chowcalc import checks, cli, linalg, poly, rings
from chowcalc.poly import Poly, Signature, coefficient, exact_div

XY = Signature.make([("x", 1), ("y", 1)])


def is_canonical(c):
    return (type(c) is int) or (type(c) is Fraction and c.denominator != 1)


def is_stored_pair(p):
    """The invariant of a Poly's (num, den) and of its `terms` view."""
    num, den = p.num, p.den
    return (type(den) is int and den > 0
            and all(type(c) is int and c for c in num.values())
            and gcd(den, *num.values()) == 1
            and all(is_canonical(c) for c in p.terms.values())
            and p.terms == {m: Fraction(c, den) for m, c in num.items()})


@pytest.fixture
def built_polys(monkeypatch):
    """Every Poly constructed while the fixture is active, in order."""
    seen = []
    init = Poly.__init__

    def recording_init(self, sig, terms=None, den=None):
        init(self, sig, terms, den)
        seen.append(self)

    monkeypatch.setattr(Poly, "__init__", recording_init)
    return seen


def test_full_run_stores_canonical_coefficients(built_polys, capsys):
    # rebuild the catalog so that its bases are built under observation
    rings.catalog.cache_clear()
    checks._ring.cache_clear()
    assert cli.main(["run", "--all", "--slow"]) == 0
    assert "PASS" in capsys.readouterr().out
    b = rings.catalog("B")
    h3, a = b.var("h_3"), [b.var("a_%d" % i) for i in range(1, 5)]
    x = Fraction(1, 2) * a[0] - Fraction(3, 4) * h3 * h3 + 3 * a[1]
    y = Fraction(2, 3) * a[2] + h3 * h3 - Fraction(5, 7) * a[3]
    value = b.integrate(x * y)
    assert type(value) is Fraction
    assert value == b.integrate(y * x)
    assert len(built_polys) > 10000
    fractional = 0
    for p in built_polys:
        assert is_stored_pair(p), p
        fractional += any(type(c) is Fraction for c in p.terms.values())
    assert fractional > 0
    for name in ("B", "G26", "Gw36", "FB", "I", "Pi", "P1^4"):
        ring = rings.catalog(name)
        assert all(is_canonical(v) for v in ring.top.values()), name
        assert type(ring.integrate(ring.one())) is Fraction


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False])
def test_floats_and_bools_are_refused(bad):
    mono = (1, 0)
    with pytest.raises(TypeError):
        Poly(XY, {mono: bad})
    with pytest.raises(TypeError):
        Poly.constant(XY, bad)
    with pytest.raises(TypeError):
        Poly.variable(XY, "x").scale(bad)
    with pytest.raises(TypeError):
        coefficient(bad)


def test_normaliser_and_exact_division():
    assert coefficient(Fraction(6, 3)) == 2 and type(coefficient(Fraction(6, 3))) is int
    assert type(coefficient(Fraction(1, 3))) is Fraction
    assert exact_div(6, 3) == 2 and type(exact_div(6, 3)) is int
    assert exact_div(-7, 2) == Fraction(-7, 2)
    assert exact_div(Fraction(3, 2), Fraction(1, 2)) == 3
    assert type(exact_div(Fraction(3, 2), Fraction(1, 2))) is int
    assert exact_div(1, Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)
    p = Poly(XY, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2)})
    assert [type(c) for _, c in p.sorted_terms()] == [int, Fraction]


@pytest.mark.parametrize("a, b", [(True, Fraction(1, 2)),
                                  (Fraction(1, 2), True), (False, 3),
                                  (3, True), (True, True), (0.5, 0.25),
                                  (Fraction(1, 2), 0.5), (2.0, 1)])
def test_exact_div_refuses_bools_and_floats_on_either_side(a, b):
    with pytest.raises(TypeError):
        exact_div(a, b)


def test_echelon_entries_stay_canonical(monkeypatch):
    """Every row entry `_echelon` stores, and every `_axpy` result, is in
    stored form, both in catalog Groebner builds and in `linalg.rref`."""
    echelon, axpy = poly._echelon, poly._axpy
    seen = []

    def recording_echelon(rows, key):
        pivots = echelon(rows, key)
        seen.extend(c for row in pivots.values() for c in row.values())
        return pivots

    def recording_axpy(row, factor, other):
        axpy(row, factor, other)
        seen.extend(row.values())

    monkeypatch.setattr(poly, "_echelon", recording_echelon)
    monkeypatch.setattr(linalg, "_echelon", recording_echelon)
    monkeypatch.setattr(poly, "_axpy", recording_axpy)
    # rebuild the catalog so that its bases are built under observation
    rings.catalog.cache_clear()
    for name in ("B", "G26", "Gw36", "P1^4"):
        rings.catalog(name)
    built = len(seen)
    assert built > 200
    red, pivots = linalg.rref([[2, 4, 6, 3], [3, 5, 7, 1], [5, 9, 14, 4]])
    assert pivots == [0, 1, 2]
    assert red == [[1, 0, 0, Fraction(-11, 2)], [0, 1, 0, Fraction(7, 2)],
                   [0, 0, 1, 0]]
    assert len(seen) > built
    assert all(is_canonical(c) for c in seen)
    assert all(is_canonical(c) for row in red for c in row)


@pytest.mark.parametrize("name", ["B", "P5"])
def test_reflected_subtraction(name):
    ring = rings.catalog(name)
    x = ring.var(ring.sig.names[0])
    assert 3 - x == -(x - 3)
    assert (3 - x) + x == ring.const(3)
    assert Fraction(1, 2) - x == -(x - Fraction(1, 2))
    assert str(Fraction(1, 2) - x) == "-%s + 1/2" % ring.sig.names[0]
    p = x.rep
    assert 3 - p == -(p - 3)
    assert Fraction(1, 2) - p == Poly.constant(ring.sig, Fraction(1, 2)) - p
    assert (Fraction(1, 2) - p).constant_term() == Fraction(1, 2)
