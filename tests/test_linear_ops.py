"""Linear operations on classes in normal form take no normal form.

A sum, difference, negation or scalar multiple of classes in normal form is
itself in normal form, and so is a constant, since no ring holds a relation
of degree 0.  So `ChowClass` takes these results as they are.  On every
catalog ring, a bundle over G26, P1 x Gw36 and a blow-up of P1^3, each
linear result must still equal the normal form of the same operation on
unreduced polynomials; a linear operation makes no normal form and a
product makes one.  `reduce_poly` gives the same remainder with the table
a basis builds once and without it.
"""

import contextlib
import functools
from fractions import Fraction
from unittest import mock

import pytest

from chowcalc.poly import (GroebnerBasis, Poly, Signature, division_table,
                           reduce_poly)
from chowcalc.rings import (ChowRing, blowup_threefold_along_curve, catalog,
                            product_ring, projective_bundle, projective_space)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

CATALOG = ("P5", "P1^4", "G26", "Gw36", "B", "FB", "I", "Pi")


def _bundle_over_g26():
    g = catalog("G26")
    return projective_bundle(g, [g.parse("2*h_2"), g.parse("h_2^2 - c_2")],
                             "z")


def _product():
    return product_ring(projective_space(1, var="s"), catalog("Gw36"))


def _blowup():
    base = catalog("P1^3")
    curve = base.parse("alpha_1*alpha_2 + 2*alpha_1*alpha_3")
    return blowup_threefold_along_curve(base, curve, 0)


BUILDERS = dict(
    {name: functools.partial(catalog, name) for name in CATALOG},
    **{"Proj over G26": _bundle_over_g26, "P1 x Gw36": _product,
       "Bl P1^3": _blowup})


@functools.lru_cache(maxsize=None)
def ring_of(name):
    return BUILDERS[name]()


@contextlib.contextmanager
def counting_normal_forms():
    """Patch GroebnerBasis.normal_form to append each argument to a list."""
    calls = []
    normal_form = GroebnerBasis.normal_form

    def counting(gb, p):
        calls.append(p)
        return normal_form(gb, p)

    with mock.patch.object(GroebnerBasis, "normal_form", counting):
        yield calls


scalars = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))


@st.composite
def raw_poly(draw, name):
    """An unreduced Poly of mixed degree: exponents up to one past any
    lead's, so most terms are not standard."""
    ring = ring_of(name)
    leads = ring.gb.leads
    bound = [max(lead[i] for lead in leads) + 1 for i in range(len(ring.sig))]
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        mono = tuple(draw(st.integers(0, b)) for b in bound)
        terms[mono] = draw(scalars)
    return Poly(ring.sig, terms)


@pytest.mark.parametrize("name", list(BUILDERS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_linear_results_are_normal_forms(data, name):
    ring = ring_of(name)
    p, q = data.draw(raw_poly(name)), data.draw(raw_poly(name))
    c = data.draw(scalars)
    x, y = ring.cls(p), ring.cls(q)
    const = Poly.constant(ring.sig, c)
    cases = [(x + y, p + q), (x - y, p - q), (-x, -p),
             (c * x, p.scale(c)), (x * c, p.scale(c)),
             (c + x, const + p), (x + c, p + const),
             (c - x, const - p), (x - c, p - const),
             (ring.const(c), const), (ring.zero(), Poly.zero(ring.sig)),
             (ring.one(), Poly.one(ring.sig))]
    for got, raw in cases:
        assert got.ring is ring
        assert got.rep == ring.normal_form(raw)


@pytest.mark.parametrize("name", list(BUILDERS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_linear_ops_make_no_normal_form_and_products_one(data, name):
    ring = ring_of(name)
    p, q = data.draw(raw_poly(name)), data.draw(raw_poly(name))
    c = data.draw(scalars)
    x, y = ring.cls(p), ring.cls(q)
    linear = (lambda: x + y, lambda: x - y, lambda: -x, lambda: c * x,
              lambda: x * c, lambda: c + x, lambda: x + c, lambda: c - x,
              lambda: x - c, lambda: x == c, lambda: ring.const(c),
              lambda: ring.zero(), lambda: ring.one(), lambda: x ** 0)
    with counting_normal_forms() as calls:
        for op in linear:
            op()
        assert calls == []
        for op in (lambda: x * y, lambda: x ** 2, lambda: ring.cls(p),
                   lambda: x + p, lambda: p - x):
            del calls[:]
            op()
            assert len(calls) == 1


@pytest.mark.parametrize("name", list(BUILDERS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_division_table_changes_no_remainder(data, name):
    ring = ring_of(name)
    p = data.draw(raw_poly(name))
    gb = ring.gb
    assert gb.table == division_table(gb.elements)
    assert reduce_poly(p, gb.elements, gb.table) == \
        reduce_poly(p, gb.elements) == gb.normal_form(p)
    # the raw relations are no basis: the order of the steps matters
    relations = ring.relations
    assert reduce_poly(p, relations, division_table(relations)) == \
        reduce_poly(p, relations)


@pytest.mark.parametrize("name", ["P5", "B", "Proj over G26"])
def test_inexact_scalars_are_still_refused(name):
    x = ring_of(name).var(ring_of(name).sig.names[0])
    for op in (lambda: x * True, lambda: True * x, lambda: x * 2.0,
               lambda: 2.0 * x, lambda: 2.0 + x, lambda: x + 2.0,
               lambda: x - 2.0, lambda: 2.0 - x, lambda: x + True,
               lambda: False - x):
        with pytest.raises(TypeError):
            op()


def test_a_ring_refuses_the_unit_ideal():
    sig = Signature.make([("h", 1)])
    h = Poly.variable(sig, "h")
    for relations in ([Poly.one(sig)], [h ** 3, Poly.constant(sig, 2)]):
        with pytest.raises(ValueError, match="unit ideal"):
            ChowRing("U", sig, relations, 2)
        with pytest.raises(ValueError, match="unit ideal"):
            ChowRing("U", sig, [h ** 3], 2, gb=GroebnerBasis(relations))
    # a bundle of rank 0 has the relation zeta^0 = 1
    with pytest.raises(ValueError, match="unit ideal"):
        projective_bundle(catalog("P2"), [], "z")
    assert ChowRing("P2", sig, [h ** 3], 2).one().rep == Poly.one(sig)
