"""A warm basis decides each monomial once.

Each `GroebnerBasis` keeps `found`, reduce_poly's lookup from a monomial to
the position of the first element whose lead divides it (or None), for
monomials of weighted degree at most its table's pure-power bound; a basis
without a pure power of every variable records nothing.  The lookup must
change no remainder, on a basis or on a raw relation list; a standard
input comes back as the same object; a second normal form of the same
input reads only the lookup; and `ChowRing.var` builds each variable's
class once.
"""

import functools

import pytest

from chowcalc import poly
from chowcalc.poly import Poly, division_table, reduce_poly
from chowcalc.rings import catalog

from reference_groebner import divide
from test_linear_ops import BUILDERS, raw_poly, ring_of

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


def weighted_degree(sig, mono):
    return sum(w * e for w, e in zip(sig.weights, mono))


@functools.lru_cache(maxsize=None)
def relations_of(name):
    """The ring's raw relations, their table and a lookup kept across
    examples, as a basis keeps its own."""
    relations = ring_of(name).relations
    return relations, division_table(relations), {}


@pytest.mark.parametrize("name", list(BUILDERS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_warm_normal_form_is_the_division_remainder(data, name):
    ring = ring_of(name)
    gb = ring.gb
    p = data.draw(raw_poly(name))
    gb.normal_form(p)
    warm = gb.normal_form(p)
    assert warm == reduce_poly(p, gb.elements) == divide(p, gb.elements)
    assert reduce_poly(p, gb.elements, gb.table, {}) == warm
    # the raw relations are no basis: which relation cancels first matters
    relations, table, found = relations_of(name)
    once = reduce_poly(p, relations, table, found)
    assert once == reduce_poly(p, relations, table, found) == \
        reduce_poly(p, relations) == divide(p, relations)


@pytest.mark.parametrize("name", list(BUILDERS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_lookup_holds_first_divisors_up_to_the_bound(data, name):
    ring = ring_of(name)
    gb = ring.gb
    gb.normal_form(data.draw(raw_poly(name)))
    leads, _, bound = gb.table
    if bound is None:
        assert gb.found == {}
        return
    for mono, k in gb.found.items():
        assert weighted_degree(ring.sig, mono) <= bound
        divisors = [i for i, lead in enumerate(leads)
                    if poly.mono_divides(lead, mono)]
        assert k == (divisors[0] if divisors else None)


def test_bounds_of_the_catalog_and_a_blowup():
    assert catalog("B").gb.table[2] == 11
    assert catalog("G26").gb.table[2] == 12
    assert catalog("I").gb.table[2] == 5
    assert catalog("P5").gb.table[2] == 5
    assert ring_of("Bl P1^3").gb.table[2] is None


@pytest.mark.parametrize("name", ["B", "G26", "I", "P1^4"])
def test_every_monomial_above_the_bound_is_reducible(name):
    ring = catalog(name)
    bound = ring.gb.table[2]
    for d in range(bound + 1, bound + 1 + max(ring.sig.weights)):
        assert ring.standard_monomials(d) == []
    assert ring.standard_monomials(ring.dim) != []


def test_a_blowup_records_nothing():
    ring = ring_of("Bl P1^3")
    x = sum((ring.var(v) for v in ring.sig.names), ring.zero())
    for n in range(1, 5):
        x ** n
    ring.integrate(x ** 3)
    assert ring.gb.found == {}


@pytest.mark.parametrize("name", list(BUILDERS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_standard_input_comes_back_as_it_is(data, name):
    ring = ring_of(name)
    standard = ring.normal_form(data.draw(raw_poly(name)))
    assert ring.normal_form(standard) is standard
    relations, table, found = relations_of(name)
    standard = reduce_poly(standard, relations, table, found)
    assert reduce_poly(standard, relations, table, found) is standard
    assert reduce_poly(standard, relations) is standard


def test_a_second_warm_normal_form_scans_no_lead(monkeypatch):
    # a fresh B, not the shared catalog one, so the first pass is cold
    ring = catalog.__wrapped__("B")
    gb = ring.gb
    # the rows are read only when some element has several terms
    assert any(len(g.terms) > 1 for g in gb)
    p = ring.parse("(h_3 + a_1 + 2*a_2 - a_3 + a_4)^2").rep
    p = p * p
    calls = []

    def counting(a, b):
        calls.append(b)
        return all(x <= y for x, y in zip(a, b))

    monkeypatch.setattr(poly, "mono_divides", counting)
    warm = gb.normal_form(p)
    assert calls
    calls.clear()
    assert gb.normal_form(p) == warm
    assert calls == []


@pytest.mark.parametrize("name", list(BUILDERS))
def test_var_is_built_once(name):
    ring = ring_of(name)
    for v in ring.sig.names:
        x = ring.var(v)
        assert ring.var(v) is x
        assert x == ring.cls(Poly.variable(ring.sig, v))
        assert x.rep == ring.normal_form(Poly.variable(ring.sig, v))
    with pytest.raises(KeyError):
        ring.var("not_a_variable")
