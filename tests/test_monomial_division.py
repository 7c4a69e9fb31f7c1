"""`reduce_poly` on single-term divisors filters instead of dividing.

Random polynomials, with terms inside and outside each ideal, are reduced
by the program and by the textbook division in `reference_groebner`, which
shares no code with `reduce_poly`; the two remainders must be equal.
"""

import functools

import pytest
from reference_groebner import divide

from chowcalc.poly import Poly, Signature, reduce_poly
from chowcalc.rings import (blowup_threefold_along_curve, catalog,
                            product_ring, projective_space)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

XYZ = Signature.make([("x", 1), ("y", 1), ("z", 1)])


def _genus_one_blowup():
    base = catalog("P1^3")
    curve = base.parse("2*alpha_2*alpha_3 + 2*alpha_1*alpha_3"
                       " + 2*alpha_1*alpha_2")
    return blowup_threefold_along_curve(base, curve, 1)


RINGS = {
    "P5": lambda: catalog("P5"),
    "P1^4": lambda: catalog("P1^4"),
    "FB": lambda: catalog("FB"),
    "blowup-P1^3": _genus_one_blowup,
    "P1[u]xP5": lambda: product_ring(projective_space(1, var="u"),
                                     catalog("P5")),
    "I": lambda: catalog("I"),
}


@functools.lru_cache(maxsize=None)
def ring(name):
    return RINGS[name]()


@st.composite
def polys_near(draw, r):
    """Polynomials whose exponents run one past the largest in any lead."""
    bound = [max(g.leading_monomial()[i] for g in r.gb) + 1
             for i in range(len(r.sig))]
    monos = st.tuples(*(st.integers(0, b) for b in bound))
    coeffs = st.fractions(-9, 9, max_denominator=6)
    return Poly(r.sig, draw(st.dictionaries(monos, coeffs, max_size=8)))


@pytest.mark.parametrize("name", ["P5", "P1^4", "FB", "blowup-P1^3",
                                  "P1[u]xP5"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_monomial_basis_filters_like_division(name, data):
    r = ring(name)
    assert all(len(g.terms) == 1 for g in r.gb)
    p = data.draw(polys_near(r))
    assert reduce_poly(p, r.gb.elements) == divide(p, r.gb.elements)
    assert r.normal_form(p) == divide(p, r.gb.elements)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                                st.fractions(-5, 5, max_denominator=4),
                                max_size=1), max_size=4),
       st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3),
                       st.fractions(-9, 9, max_denominator=6), max_size=8))
def test_any_single_term_list_filters_like_division(divisors, terms):
    # zero, non-monic and redundant divisors, Groebner basis or not
    divisors = [Poly(XYZ, d) for d in divisors]
    p = Poly(XYZ, terms)
    assert reduce_poly(p, divisors) == divide(p, divisors)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mixed_basis_divides(data):
    r = ring("I")
    p = data.draw(polys_near(r))
    assert reduce_poly(p, r.gb.elements) == divide(p, r.gb.elements)


def test_mixed_basis_runs_the_division_loop():
    # I's basis is four squares and one quadric with a tail: reducing that
    # quadric's lead must bring in the tail, where a filter would give 0
    r = ring("I")
    (g,) = [g for g in r.gb if len(g.terms) > 1]
    lead = Poly(r.sig, {g.leading_monomial(): 1})
    tail = lead - g
    assert tail and reduce_poly(lead, r.gb.elements) == tail
