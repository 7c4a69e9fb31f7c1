"""A Poly finds its leading term once and keeps it.

`Poly.leading_term` scans the terms under `grevlex_key` on its first call
and caches the answer; the zero polynomial has no leading term and caches
nothing.  The cache must give the scan's own answer in weighted
signatures, must not change equality or hashing, and must spare a normal
form modulo a fixed basis from re-scanning the basis on every call.
"""

import pytest

from chowcalc import poly
from chowcalc.poly import Poly, Signature, grevlex_key
from chowcalc.rings import catalog

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

SIGNATURES = [
    Signature.make([("x", 1), ("y", 1), ("z", 1)]),
    Signature.make([("h_3", 1), ("a_1", 2), ("a_2", 2), ("a_3", 2),
                    ("a_4", 2)]),
    Signature.make([("u", 3), ("v", 1), ("w", 2)]),
]

coefficients = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-3, max_value=3, max_denominator=7))


@st.composite
def polys(draw):
    sig = draw(st.sampled_from(SIGNATURES))
    monos = st.tuples(*[st.integers(0, 4)] * len(sig))
    terms = draw(st.dictionaries(monos, coefficients, min_size=1,
                                 max_size=12))
    return Poly(sig, terms)


@settings(max_examples=200, deadline=None)
@given(p=polys())
def test_lead_is_the_grevlex_largest_term_and_is_kept(p):
    hypothesis.assume(not p.is_zero())
    mono = max(p.terms, key=lambda m: grevlex_key(p.sig, m))
    first = p.leading_term()
    assert first == (mono, p.terms[mono])
    assert p.leading_term() is first
    assert p.leading_monomial() == mono


def test_zero_has_no_lead_on_any_call():
    zero = Poly.zero(SIGNATURES[1])
    for _ in range(2):
        with pytest.raises(ValueError, match="no leading term"):
            zero.leading_term()
        with pytest.raises(ValueError, match="no leading term"):
            zero.leading_monomial()


@settings(max_examples=100, deadline=None)
@given(p=polys())
def test_equality_and_hash_ignore_the_cache(p):
    hypothesis.assume(not p.is_zero())
    cold = Poly(p.sig, dict(p.terms))
    p.leading_term()
    assert p == cold and cold == p
    assert hash(p) == hash(cold)


def test_warm_normal_form_does_not_rescan_the_basis(monkeypatch):
    ring = catalog("B")
    gb = ring.gb
    # the lead table is read only when some divisor has several terms
    assert any(len(g.terms) > 1 for g in gb)
    p = ring.parse("(h_3 + a_1 + 2*a_2 - a_3 + a_4)^2").rep
    p = p * p
    calls = []

    def counting_key(sig, mono):
        calls.append(mono)
        return grevlex_key(sig, mono)

    monkeypatch.setattr(poly, "grevlex_key", counting_key)
    warm = gb.normal_form(p)
    calls.clear()
    assert gb.normal_form(p) == warm
    assert calls == []
