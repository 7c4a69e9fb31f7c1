"""Powers of Chow classes agree with repeated multiplication.

`ChowClass.__pow__` raises a single-term class in Q[vars] and reduces it
once, and squares and multiplies any other class.  On every catalog ring
and on bundle, blow-up and product rings, x ** n must equal the product of
n copies of x starting from the ring's one, for single terms (with
`Fraction` coefficients, and the zero class) and for sums of terms of
mixed degree.  `Poly.__pow__` raises a single term in one step,
{m: c} ** n = {n m: c ** n}, which must equal repeated multiplication too.
"""

import functools
from fractions import Fraction

import pytest

from chowcalc.poly import GroebnerBasis, Poly, Signature
from chowcalc.rings import (blowup_threefold_along_curve, catalog,
                            product_ring, projective_bundle)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

CATALOG = ("P3", "P5", "P1^4", "G26", "Gw36", "B", "FB", "I", "Pi")


def _bundle_over_g26():
    g = catalog("G26")
    return projective_bundle(g, [g.parse("2*h_2"), g.parse("h_2^2 - c_2")],
                             "z")


def _blowup():
    base = catalog("P1^3")
    curve = base.parse("alpha_1*alpha_2 + 2*alpha_1*alpha_3")
    return blowup_threefold_along_curve(base, curve, 0)


BUILDERS = dict(
    {name: functools.partial(catalog, name) for name in CATALOG},
    **{"Proj over G26": _bundle_over_g26, "Bl P1^3": _blowup,
       "P1 x Gw36": lambda: product_ring(catalog("P1"), catalog("Gw36"))})


@functools.lru_cache(maxsize=None)
def ring_and_monomials(name):
    """The ring and its standard monomials of every degree 0..dim."""
    ring = BUILDERS[name]()
    monos = [m for d in range(ring.dim + 1)
             for m in ring.standard_monomials(d)]
    return ring, monos


def repeated_product(x, n):
    out = x.ring.one()
    for _ in range(n):
        out = out * x
    return out


def assert_power(x, n):
    """x ** n is the class of the n-fold product, held in normal form."""
    power = x ** n
    assert type(power) is type(x) and power.ring is x.ring, n
    assert power.rep == repeated_product(x, n).rep, n
    assert x.ring.normal_form(power.rep) == power.rep, n


coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=5))


def classes(data, name):
    ring, monos = ring_and_monomials(name)
    count = data.draw(st.integers(1, 4), label="terms")
    terms = {data.draw(st.sampled_from(monos), label="monomial"):
             data.draw(coefficients, label="coefficient")
             for _ in range(count)}
    return ring.cls(Poly(ring.sig, terms))


@pytest.mark.parametrize("name", list(BUILDERS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_power_equals_repeated_product(name, data):
    x = classes(data, name)
    for n in range(x.ring.dim + 3):
        assert_power(x, n)


@pytest.mark.parametrize("name", list(BUILDERS))
def test_single_terms_and_zero(name):
    ring, monos = ring_and_monomials(name)
    for n in range(ring.dim + 3):
        assert_power(ring.zero(), n)
    for mono in monos:
        for c in (1, -2, Fraction(3, 4)):
            x = ring.cls(Poly(ring.sig, {mono: c}))
            assert len(x.rep.terms) == 1
            for n in range(ring.dim + 3):
                assert_power(x, n)


@pytest.mark.parametrize("text", ["h", "h + 1", "2*h^2 - 1/3*h + 5"])
def test_exponent_checks_stay_in_front(text):
    x = catalog("P3").parse(text)
    for bad in (True, False, 2.0):
        with pytest.raises(TypeError):
            x ** bad
    with pytest.raises(ValueError):
        x ** -1


def test_normal_forms_per_power(monkeypatch):
    """A single-term power reduces once; any other at most twice per bit."""
    calls = []
    normal_form = GroebnerBasis.normal_form

    def counting(gb, p):
        calls.append(p)
        return normal_form(gb, p)

    ring = _bundle_over_g26()
    z = ring.var("z")
    x = z + ring.pullback(catalog("G26").var("h_2"))
    monkeypatch.setattr(GroebnerBasis, "normal_form", counting)
    for n in range(1, 12):
        del calls[:]
        z ** n
        assert len(calls) == 1, n
        del calls[:]
        x ** n
        assert len(calls) <= 2 * (n.bit_length() - 1), n


SIGNATURES = [Signature.make([("x", 1), ("y", 1), ("z", 2)]),
              catalog("B").sig]


@settings(max_examples=100, deadline=None)
@given(sig=st.sampled_from(SIGNATURES), data=st.data(),
       c=st.one_of(st.integers(-6, 6), st.fractions(
           min_value=-3, max_value=3, max_denominator=5).filter(bool)),
       n=st.integers(0, 7))
def test_single_term_poly_power_equals_repeated_product(sig, data, c, n):
    mono = data.draw(st.tuples(*[st.integers(0, 3)] * len(sig)))
    term = Poly(sig, {mono: c})
    product = Poly.one(sig)
    for _ in range(n):
        product = product * term
    power = term ** n
    assert power == product
    assert power.terms == product.terms
    assert all(type(v) is int or v.denominator != 1
               for v in power.terms.values())


def test_single_term_poly_power_edges():
    sig = SIGNATURES[0]
    term = Poly(sig, {(1, 0, 2): Fraction(-2, 3)})
    assert term ** 0 == Poly.one(sig)
    assert term ** 1 == term
    assert Poly.zero(sig) ** 0 == Poly.one(sig)
    assert Poly.zero(sig) ** 3 == Poly.zero(sig)
    assert Poly(sig, {(0, 2, 0): Fraction(3, 2)}) ** 2 == \
        Poly(sig, {(0, 4, 0): Fraction(9, 4)})
    for bad in (True, 2.0):
        with pytest.raises(TypeError):
            term ** bad
    with pytest.raises(ValueError):
        term ** -1
