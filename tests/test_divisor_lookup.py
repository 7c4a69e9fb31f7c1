"""A warm basis decides each monomial once.

Each presented `GroebnerBasis` keeps `forms`, from a monomial to the
(numerators, denominator) pair of its normal form (or None when it is
standard), for monomials below its vanishing degree; a basis with no
vanishing degree keeps nothing.  Within one call, reduce_poly looks up
each monomial's first divisor once and keeps nothing across calls.  A
derived basis divides nothing (tests/test_derived_forms.py checks its
memos), so the memo tests run on presented bases only: on a derived ring,
on the presented basis of its relations.  The memo and the per-call lookup
must change no remainder, on a basis or on a raw relation list; a standard
input comes back as the same object; a second normal form of the same
input divides nothing and reads no lead; and `ChowRing.var` builds each
variable's class once.
"""

import functools

import pytest

from chowcalc import poly
from chowcalc.poly import GroebnerBasis, Poly, division_table, reduce_poly
from chowcalc.rings import ChowRing
from chowcalc.rings import catalog

from reference_groebner import divide
from test_derived_forms import is_presented
from test_linear_ops import BUILDERS, raw_poly, ring_of

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


def weighted_degree(sig, mono):
    return sum(w * e for w, e in zip(sig.weights, mono))


@functools.lru_cache(maxsize=None)
def relations_of(name):
    """The ring's raw relations and their table."""
    relations = ring_of(name).relations
    return relations, division_table(relations)


@functools.lru_cache(maxsize=None)
def presented_basis(name):
    """The ring's basis when it is presented, else a presented basis of
    its relations (the same reduced basis, computed and divided by)."""
    gb = ring_of(name).gb
    return gb if is_presented(gb) else GroebnerBasis(ring_of(name).relations)


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
    assert reduce_poly(p, gb.elements, gb.table) == warm
    # the raw relations are no basis: which relation cancels first matters
    relations, table = relations_of(name)
    assert reduce_poly(p, relations, table) == reduce_poly(p, relations) \
        == divide(p, relations)


@pytest.mark.parametrize("name", list(BUILDERS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_forms_hold_normal_forms_below_vanish(data, name):
    ring = ring_of(name)
    gb = presented_basis(name)
    assert is_presented(gb) and gb.elements == ring.gb.elements
    gb.normal_form(data.draw(raw_poly(name)))
    if gb.vanish is None:
        assert gb.limit == -1 and gb.forms == {}
        return
    assert gb.limit == gb.vanish - 1 <= gb.table[2]
    for mono, form in gb.forms.items():
        assert weighted_degree(ring.sig, mono) < gb.vanish
        one = Poly(ring.sig, {mono: 1})
        want = divide(one, gb.elements)
        assert (one if form is None else Poly(ring.sig, *form)) == want


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
    # the blow-up's relations as a presented ring: e has no pure power
    blowup = ring_of("Bl P1^3")
    ring = ChowRing("Bl P1^3, presented", blowup.sig, blowup.relations, 3,
                    top=blowup.top)
    gb = ring.gb
    assert is_presented(gb) and gb.table[2] is None and gb.vanish is None
    x = sum((ring.var(v) for v in ring.sig.names), ring.zero())
    for n in range(1, 5):
        x ** n
    ring.integrate(x ** 3)
    assert gb.limit == -1 and gb.forms == {}


@pytest.mark.parametrize("name", list(BUILDERS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_standard_input_comes_back_as_it_is(data, name):
    ring = ring_of(name)
    standard = ring.normal_form(data.draw(raw_poly(name)))
    assert ring.normal_form(standard) is standard
    relations, table = relations_of(name)
    standard = reduce_poly(standard, relations, table)
    assert reduce_poly(standard, relations, table) is standard
    assert reduce_poly(standard, relations) is standard


def test_a_second_warm_normal_form_scans_no_lead(monkeypatch):
    # a fresh B, not the shared catalog one, so the first pass is cold
    ring = catalog.__wrapped__("B")
    gb = ring.gb
    # the rows are read only when some element has several terms
    assert any(len(g.terms) > 1 for g in gb)
    # degrees 2 to 4, below B's vanishing degree 5, so some term divides
    p = poly.parse_poly("(h_3 + a_1 + 2*a_2 - a_3 + a_4)^2", ring.sig)
    calls, divisions = [], []

    def counting(a, b):
        calls.append(b)
        return all(x <= y for x, y in zip(a, b))

    def dividing(*args):
        divisions.append(args)
        return reduce_poly(*args)

    monkeypatch.setattr(poly, "mono_divides", counting)
    monkeypatch.setattr(poly, "reduce_poly", dividing)
    warm = gb.normal_form(p)
    assert calls and divisions
    calls.clear()
    divisions.clear()
    assert gb.normal_form(p) == warm
    assert calls == [] and divisions == []


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
