"""The truncated series of chowcalc.bundles agree with step-by-step classes.

`chowcalc.bundles` runs the Chern calculus in Q[vars], truncated above the
ring's dimension, and reduces once per returned class.  On random bundles
and classes over the catalog rings, a projective bundle and a product ring,
every function here must return the classes that `reference_chern` gets by
reducing every partial sum and product; the kernel's twist and dual must
also match the reference's, which go through the character instead.
`chern_from_character` must invert `chern_character` on Chern classes
with denominators.
"""

import functools
import random
from fractions import Fraction

import pytest

import reference_chern as ref
from chowcalc import bundles
from chowcalc.bundles import BundleClass
from chowcalc.poly import Poly
from chowcalc.rings import catalog, product_ring, projective_bundle, \
    projective_space

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

CATALOG = ("P5", "B", "G26", "Gw36", "FB", "I", "Pi", "P1^4")


def _bundle_over_b():
    b = catalog("B")
    return projective_bundle(b, [b.var("h_3"), b.var("a_1")], "z")


def _product():
    return product_ring(projective_space(1, var="s"), catalog("Gw36"))


def _p1_x_p2():
    return product_ring(projective_space(1, var="s"),
                        projective_space(2, var="t"))


BUILDERS = dict(
    {name: functools.partial(catalog, name) for name in CATALOG},
    **{"Proj over B": _bundle_over_b, "P1 x Gw36": _product,
       "P1 x P2": _p1_x_p2})
RINGS = tuple(name for name in BUILDERS if name != "P1 x P2")
WITH_TANGENT = ("P5", "P1^4", "P1 x P2")


@functools.lru_cache(maxsize=None)
def ring_and_monomials(name):
    """The ring and its standard monomials by degree 0..dim."""
    ring = BUILDERS[name]()
    return ring, [ring.standard_monomials(d) for d in range(ring.dim + 1)]


@st.composite
def graded_class(draw, name, degree):
    """A class of one degree: a few standard monomials, small coefficients."""
    ring, monos = ring_and_monomials(name)
    if not monos[degree]:
        return ring.zero()
    picks = draw(st.lists(st.sampled_from(monos[degree]), min_size=1,
                          max_size=3))
    terms = {}
    for m in picks:
        terms[m] = Fraction(draw(st.integers(-3, 3)),
                            draw(st.sampled_from((1, 1, 2, 3))))
    return ring.cls(Poly(ring.sig, terms))


@st.composite
def bundle(draw, name):
    ring, _ = ring_and_monomials(name)
    chern = [draw(graded_class(name, d)) for d in range(1, ring.dim + 1)]
    return BundleClass(ring, draw(st.integers(-2, 5)), chern)


@st.composite
def mixed_class(draw, name, constant):
    """constant + a class with a random part in each degree 1..dim."""
    ring, _ = ring_and_monomials(name)
    out = ring.const(constant)
    for d in range(1, ring.dim + 1):
        out = out + draw(graded_class(name, d))
    return out


EXAMPLES = 8


def inverse(x):
    """The kernel's inverse of the series of x, as a class."""
    ring = x.ring
    return bundles._class(ring, bundles._inverse(bundles._graded(x.rep,
                                                                  ring.dim)))


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_series_inverse_matches_stepwise(data, name):
    x = data.draw(mixed_class(name, 1))
    assert inverse(x) == ref.series_inverse(x)


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_whitney_sum_and_quotient_match_stepwise(data, name):
    e, f = data.draw(bundle(name)), data.draw(bundle(name))
    assert bundles.whitney_sum(e, f) == ref.whitney_sum(e, f)
    assert bundles.whitney_quotient(e, f) == ref.whitney_quotient(e, f)
    assert e.total_chern() == ref.total_chern(e)
    inverse = ref.series_inverse(ref.total_chern(e))
    assert bundles.segre(e) == inverse
    ring = e.ring
    for k in range(-1, ring.dim + 2):
        expected = ring.cls(inverse.rep.homogeneous_part(k))
        assert bundles.segre_component(e, k) == expected


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_power_sums_and_character_match_stepwise(data, name):
    e = data.draw(bundle(name))
    ring = e.ring
    ps = bundles._power_sums(e)
    assert [ring.cls(Poly(ring.sig, *p)) for p in ps[1:]] == \
        ref.power_sums(e, ring.dim)
    assert bundles.chern_character(e) == ref.chern_character(e)


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_chern_from_character_matches_stepwise(data, name):
    ch = data.draw(mixed_class(name, data.draw(st.integers(-3, 5))))
    ring = ch.ring
    assert bundles.chern_from_character(ring, ch) == \
        ref.chern_from_character(ring, ch)


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_twist_and_dual_match_stepwise(data, name):
    e = data.draw(bundle(name))
    d = data.draw(graded_class(name, 1))
    assert bundles.twist(e, d) == ref.twist(e, d)
    assert bundles.dual(e) == ref.dual(e)


@pytest.mark.parametrize("name", CATALOG)
def test_character_round_trip_over_denominators(name):
    """chern_from_character inverts chern_character on seeded bundles whose
    Chern classes have denominators 2, 3 and 4, so that c_k's k! D^k
    scaling meets denominators that do not cancel."""
    ring, monos = ring_and_monomials(name)
    rng = random.Random(32)
    for den in (2, 3, 4):
        for _ in range(3):
            chern = []
            for d in range(1, ring.dim + 1):
                picks = rng.sample(monos[d], min(2, len(monos[d])))
                chern.append(ring.cls(Poly(ring.sig, {
                    m: Fraction(1 if (d, k) == (1, 0) else rng.randint(-3, 3),
                                den) for k, m in enumerate(picks)})))
            e = BundleClass(ring, rng.randint(-2, 5), chern)
            assert e.c(1).rep.den == den
            ch = bundles.chern_character(e)
            assert bundles.chern_from_character(ring, ch) == e


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_todd_class_matches_stepwise(data, name):
    e = data.draw(bundle(name))
    assert bundles.todd_class(e) == ref.todd_class(e)


@pytest.mark.parametrize("name", WITH_TANGENT)
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data(), genus=st.integers(0, 4), degree=st.integers(-4, 6))
def test_grr_push_curve_matches_stepwise(data, name, genus, degree):
    ring, _ = ring_and_monomials(name)
    curve = data.draw(graded_class(name, ring.dim - 1))
    point = data.draw(graded_class(name, ring.dim))
    hypothesis.assume(not curve.is_zero())
    assert bundles.grr_push_curve(ring, genus, curve, point, degree) == \
        ref.grr_push_curve(ring, genus, curve, point, degree)


@pytest.mark.parametrize("name", ["P5", "B", "Gw36"])
def test_inverse_refuses_a_series_whose_degree_0_part_is_not_1(name):
    ring = catalog(name)
    positive = ring.var(ring.sig.names[0])
    for constant in (0, 2, -1, Fraction(1, 2)):
        with pytest.raises(ValueError, match="degree-0 part"):
            inverse(ring.const(constant) + positive)
    assert inverse(ring.one() + positive) == \
        ref.series_inverse(ring.one() + positive)


@pytest.mark.parametrize("name", WITH_TANGENT)
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_chi_of_character_matches_the_whole_product(data, name):
    ch = data.draw(mixed_class(name, data.draw(st.integers(-3, 5))))
    ring = ch.ring
    assert bundles.chi_of_character(ring, ch) == \
        ref.chi_of_character(ring, ch)
    e = data.draw(bundle(name))
    assert bundles.hrr_chi(e) == \
        ref.chi_of_character(ring, ref.chern_character(e))


def test_chi_of_character_refuses_a_class_of_another_ring():
    p5, other = catalog("P5"), projective_space(5)
    with pytest.raises(ValueError, match="different ring"):
        bundles.chi_of_character(p5, other.var("h"))
