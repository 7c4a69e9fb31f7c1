"""Every basis sums per-monomial forms; derived rings reduce through the
ring they are built on.

A product's, a projective bundle's or a blow-up's basis finds the normal
form of each monomial from its base's normal forms, with no division loop;
a presented basis divides one monomial at a time (see
`poly.GroebnerBasis`).  The normal form modulo a Groebner basis is unique,
so on every derived ring, nested ones included, on every presented catalog
ring and on the minors ideal of `cubic-locus`, it must equal the textbook
division remainder modulo the basis, also for monomials above the ring's
dimension, where nothing is kept.  A standard input comes back as the same
object; every `forms` memo holds only monomials up to its bound, and only
their true normal forms; a derived basis builds no division table; and a
base without an integration rule is refused before any ring is built.
"""

import functools
import random
from fractions import Fraction

import pytest

from chowcalc.pencil import Quasimonad
from chowcalc.poly import GroebnerBasis, Poly, Signature, reduce_poly
from chowcalc.rings import (ChowRing, blowup_threefold_along_curve, catalog,
                            presented, product_ring, projective_bundle,
                            projective_space)

from reference_groebner import buchberger, divide

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


def _bundle_over_g26():
    g = catalog("G26")
    return projective_bundle(g, [g.parse("2*h_2"), g.parse("h_2^2 - c_2")],
                             "z")


def _bundle_over_a_bundle():
    pi = catalog("Pi")
    return projective_bundle(
        pi, [pi.parse("sigma + 2*h"), pi.parse("3/2*h^2 - sigma*h"),
             pi.parse("h^3")], "w")


def _bundle_over_a_product():
    base = product_ring(projective_space(1, var="s"),
                        projective_space(2, var="t"))
    return projective_bundle(base, [base.parse("s + t"),
                                    base.parse("2*s*t - t^2")], "z")


def _product_with_a_derived_factor():
    return product_ring(projective_space(1, var="s"), catalog("Pi"))


def _blowup(curve, genus):
    base = catalog("P1^3")
    return blowup_threefold_along_curve(base, base.parse(curve), genus)


def _quadric_threefold():
    """Q3 in P4: h^2 = 2 l for the line class l, l^2 = 0, h^3 = 2 points.
    Its relations are not monomials, so its normal forms have terms."""
    sig = Signature.make([("h", 1), ("l", 2)])
    h, l = Poly.variable(sig, "h"), Poly.variable(sig, "l")
    # c(T) = (1 + h)^5 / (1 + 2h)
    return presented("Q3", sig, [h * h - 2 * l, l * l], 3, h ** 3, 2,
                     [3 * h, 4 * h ** 2, 2 * h ** 3])


def _blowup_of_a_quadric():
    q = _quadric_threefold()
    return blowup_threefold_along_curve(q, q.parse("l + h^2"), 0)


def _bundle_over_a_blowup():
    bl = _blowup("alpha_1*alpha_2", 0)
    return projective_bundle(bl, [bl.parse("e - alpha_3"),
                                  bl.parse("e^2")], "z")


def _blowup_of_a_product():
    base = product_ring(product_ring(projective_space(1, var="r"),
                                     projective_space(1, var="s")),
                        projective_space(1, var="t"))
    return blowup_threefold_along_curve(base, base.parse("r*s + 2*s*t"), 1)


BUILDERS = {
    "I": functools.partial(catalog, "I"),
    "Pi": functools.partial(catalog, "Pi"),
    "FB": functools.partial(catalog, "FB"),
    "Proj over G26": _bundle_over_g26,
    "Proj over Pi": _bundle_over_a_bundle,
    "Proj over P1 x P2": _bundle_over_a_product,
    "P1 x Pi": _product_with_a_derived_factor,
    "G26 x Pi": lambda: product_ring(catalog("G26"), catalog("Pi")),
    "Bl P1^3 (1,0,0) g0": functools.partial(_blowup, "alpha_2*alpha_3", 0),
    "Bl P1^3 (1,2,0) g0": functools.partial(
        _blowup, "alpha_1*alpha_2 + 2*alpha_1*alpha_3", 0),
    "Bl P1^3 (3,1,2) g2": functools.partial(
        _blowup, "3*alpha_2*alpha_3 + alpha_1*alpha_3 + 2*alpha_1*alpha_2", 2),
    "Proj over Bl P1^3": _bundle_over_a_blowup,
    "Bl P1^3 as a product": _blowup_of_a_product,
    "Bl Q3": _blowup_of_a_quadric,
    **{name: functools.partial(catalog, name)
       for name in ("P5", "P1^3", "P1^4", "G26", "Gw36", "B")},
}


@functools.lru_cache(maxsize=None)
def ring_of(name):
    return BUILDERS[name]()


@functools.lru_cache(maxsize=None)
def basis_of(name):
    """The basis and raw_poly's cap on each variable's own degree: two
    past the ring's dimension, or 2 on the minors ideal, whose quotient
    (a curve) vanishes in no degree."""
    if name == "minors":
        gens = Quasimonad.built_in().minor_ideal_generators()
        return GroebnerBasis(gens), 2
    ring = ring_of(name)
    return ring.gb, ring.dim + 2


coefficients = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))


@st.composite
def raw_poly(draw, name):
    """An unreduced Poly of mixed degree: each variable's own degree runs
    to two past the ring's dimension, so some monomials lie above it,
    where no memo keeps anything."""
    gb, cap = basis_of(name)
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        mono = tuple(draw(st.integers(0, cap // w)) for w in gb.sig.weights)
        terms[mono] = draw(coefficients)
    return Poly(gb.sig, terms)


def weighted_degree(sig, mono):
    return sum(w * e for w, e in zip(sig.weights, mono))


@pytest.mark.parametrize("name", list(BUILDERS) + ["minors"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_normal_form_is_the_division_remainder(data, name):
    gb = basis_of(name)[0]
    p = data.draw(raw_poly(name))
    nf = gb.normal_form(p)
    assert nf == divide(p, gb.elements)
    assert nf == reduce_poly(p, gb.elements)
    # a second time, through warm memos, gives the same answer
    assert gb.normal_form(p) == nf


@pytest.mark.parametrize("name", list(BUILDERS) + ["minors"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_a_standard_input_comes_back_as_it_is(data, name):
    gb = basis_of(name)[0]
    standard = gb.normal_form(data.draw(raw_poly(name)))
    assert gb.normal_form(standard) is standard
    if name in BUILDERS:
        assert ring_of(name).cls(standard).rep is standard


@pytest.mark.parametrize("name", ["Proj over G26", "Proj over P1 x P2",
                                  "Proj over Bl P1^3", "P1 x Pi",
                                  "Bl P1^3 as a product", "Bl Q3"])
def test_the_lifted_basis_is_the_reduced_basis_of_the_relations(name):
    ring = ring_of(name)
    assert buchberger(ring.relations) == ring.gb.elements


@pytest.mark.parametrize("name", ["Proj over G26", "Proj over Pi", "I",
                                  "Proj over Bl P1^3"])
def test_high_powers_of_zeta(name):
    ring = ring_of(name)
    z = Poly.variable(ring.sig, ring.zeta)
    m = Poly(ring.sig, {(0,) + (1,) * (len(ring.sig) - 1): 1})
    for n in (ring.dim + 1, ring.dim + 5, 25):
        for p in (z ** n, z ** n * m):
            assert ring.normal_form(p) == divide(p, ring.gb.elements)
    # far past any exponent the parser admits, without recursion; over a
    # base whose quotient is finite, zeta^600 is 0
    big = ring.var(ring.zeta) ** 600
    assert big.is_zero() == (ring.base.gb.table[2] is not None)


def stream(ring, rng, count=40):
    """A seeded stream of products, powers and integrals on the ring."""
    gens = [ring.var(v) for v in ring.sig.names]
    for _ in range(count):
        x = ring.zero()
        for g in rng.sample(gens, rng.randint(1, len(gens))):
            x = x + rng.choice((-2, -1, 1, Fraction(1, 2), 3)) * g
        y = x ** rng.randint(1, ring.dim + 2) * rng.choice(gens)
        ring.integrate(y.rep.homogeneous_part(ring.dim))


def is_presented(gb):
    """A presented basis divides: its rule is its own division."""
    return gb.rule == gb._divide


def assert_memo_within_bound(gb):
    if is_presented(gb):
        assert gb.limit == (-1 if gb.vanish is None else gb.vanish - 1)
        if gb.vanish is None:
            assert gb.forms == {}
    for mono, form in gb.forms.items():
        assert weighted_degree(gb.sig, mono) <= gb.limit
        one = Poly(gb.sig, {mono: 1})
        want = divide(one, gb.elements)
        if form is None:
            assert want == one
        else:
            assert Poly(gb.sig, form) == want != one


@pytest.mark.parametrize("name", list(BUILDERS))
def test_every_memo_stays_within_its_bound(name):
    ring = ring_of(name)
    stream(ring, random.Random(2024))
    seen = [ring]
    while seen:
        r = seen.pop()
        assert_memo_within_bound(r.gb)
        if r.base is not None:
            seen.append(r.base)
    if not is_presented(ring.gb):
        assert ring.gb.limit == ring.dim
        assert ring.gb.forms
        assert all(weighted_degree(ring.sig, m) <= ring.dim
                   for m in ring.gb.forms)


@pytest.mark.parametrize("name", ["P1^4", "G26", "Gw36", "P5"])
def test_a_presented_basis_keeps_forms_up_to_its_bound(name):
    ring = catalog(name)
    stream(ring, random.Random(7), count=10)
    # a bundle over it reads the base's forms
    bundle = projective_bundle(ring, [ring.var(ring.sig.names[0]) * 2],
                               "zz")
    stream(bundle, random.Random(8), count=10)
    assert ring.gb.forms
    assert_memo_within_bound(ring.gb)


def test_a_derived_basis_builds_no_division_table():
    g = catalog("G26")
    ring = projective_bundle(g, [g.parse("h_2"), g.parse("c_2")], "y")
    stream(ring, random.Random(3), count=10)
    assert "table" not in ring.gb.__dict__
    assert not is_presented(ring.gb)
    # built when asked for, and the same table division would build
    assert ring.gb.table[0] == ring.gb.leads


def test_blowups_of_one_base_share_its_basis():
    a = ring_of("Bl P1^3 (1,0,0) g0")
    b = ring_of("Bl P1^3 (3,1,2) g2")
    assert a.gb is b.gb and a is not b
    e = a.var("e")
    assert a.integrate(e ** 3) == 0 and b.integrate(b.var("e") ** 3) == -14
    s = projective_space(1, var="s")
    pi = catalog("Pi")
    assert product_ring(s, pi).gb is product_ring(s, pi).gb
    # a twin factor (same names, another ring) gets a basis of its own
    twin = catalog.__wrapped__("Pi")
    assert product_ring(s, twin).gb is not product_ring(s, pi).gb
    # FB holds P1^4's basis but has dimension 3: its own memo bound
    with_fb = product_ring(s, catalog("FB"))
    with_p14 = product_ring(s, catalog("P1^4"))
    assert with_fb.gb is not with_p14.gb
    assert (with_fb.gb.limit, with_p14.gb.limit) == (4, 5)


def _base_without_top():
    sig = Signature.make([("x", 1)])
    x = Poly.variable(sig, "x")
    ring = ChowRing("S", sig, [x ** 4], 3,
                    tangent_chern=[4 * x, 6 * x ** 2, 4 * x ** 3])
    assert ring.top is None
    return ring


def test_a_bundle_needs_a_base_with_an_integration_rule():
    with pytest.raises(ValueError, match="integration rule"):
        projective_bundle(_base_without_top(), [Poly.zero(
            Signature.make([("x", 1)]))], "z")


def test_a_blowup_needs_a_base_with_an_integration_rule():
    base = _base_without_top()
    with pytest.raises(ValueError, match="integration rule"):
        blowup_threefold_along_curve(base, base.parse("x^2"), 0)
