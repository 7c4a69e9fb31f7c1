"""A presented basis drops every monomial from its vanishing degree.

`GroebnerBasis.vanish` is a weighted degree from which the quotient is
zero: where the run of full degrees that stopped groebner_basis early
starts (the least such degree), else the table's pure-power bound + 1,
else None; a derived basis divides nothing and records None.  It is
pinned for each catalog ring and checked against the Hilbert function.
reduce_poly drops a monomial of degree at least `vanish` undivided, so
the normal form must still equal the reference division on inputs of any
degree, an input at or above `vanish` reads no lead even on a fresh
basis, and neither memo keeps such a monomial.
"""

import pytest

from chowcalc import poly
from chowcalc.poly import GroebnerBasis, Poly, reduce_poly
from chowcalc.rings import catalog

from reference_groebner import divide
from test_linear_ops import scalars

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

# ring -> (vanish, the early stop's own value: None when it ran to the end)
VANISH = {"P5": (6, 6), "P1^4": (5, None), "P1^3": (4, None),
          "G26": (9, 9), "Gw36": (7, None), "B": (5, 5), "FB": (5, None)}
DERIVED = ("I", "Pi")


def weighted_degree(sig, mono):
    return sum(w * e for w, e in zip(sig.weights, mono))


@pytest.mark.parametrize("name", list(VANISH))
def test_vanish_of_the_presented_catalog(name):
    ring = catalog(name)
    gb = ring.gb
    vanish, stop = VANISH[name]
    assert gb.rule is None and gb.vanish == vanish
    assert poly._groebner(ring.relations) == (gb.elements, stop)
    if stop is None:
        assert gb.vanish == gb.table[2] + 1
    hilbert = gb.hilbert_function(vanish + max(ring.sig.weights) - 1)
    assert hilbert[vanish - 1] != 0
    assert hilbert[vanish:] == [0] * max(ring.sig.weights)


@pytest.mark.parametrize("name", DERIVED)
def test_a_derived_basis_records_no_vanish(name):
    assert catalog(name).gb.vanish is None


@st.composite
def past_vanish(draw, name):
    """A Poly of mixed degree, from 0 to two largest weights past vanish,
    so most of its terms lie at or above vanish."""
    sig = catalog(name).sig
    top = VANISH[name][0] + 2 * max(sig.weights)
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        mono = tuple(draw(st.integers(0, top // w)) for w in sig.weights)
        if weighted_degree(sig, mono) <= top:
            terms[mono] = draw(scalars)
    return Poly(sig, terms)


@pytest.mark.parametrize("name", list(VANISH))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_normal_form_past_vanish_is_the_division_remainder(data, name):
    gb = catalog(name).gb
    p = data.draw(past_vanish(name))
    want = divide(p, gb.elements)
    assert gb.normal_form(p) == want == reduce_poly(p, gb.elements)
    for mono in list(gb.found) + list(gb.forms):
        assert weighted_degree(gb.sig, mono) < gb.vanish


@pytest.mark.parametrize("name", list(VANISH))
def test_an_input_past_vanish_reads_no_lead_on_a_fresh_basis(name,
                                                             monkeypatch):
    ring = catalog(name)
    gb = GroebnerBasis(ring.relations)
    sig = ring.sig
    p = Poly(sig, {m: k + 1 for k, m in enumerate(
        m for d in range(gb.vanish, gb.vanish + max(sig.weights) + 2)
        for m in poly.monomials_of_degree(sig, d))})
    assert p
    calls = []

    def counting(a, b):
        calls.append(b)
        return all(x <= y for x, y in zip(a, b))

    monkeypatch.setattr(poly, "mono_divides", counting)
    assert gb.normal_form(p) == Poly.zero(sig)
    for mono in p.terms:
        assert gb.form(mono) == {}
    assert calls == []
    assert gb.found == {} and gb.forms == {}
