"""One way into a ring: every entry of rings and bundles takes a class
through ChowRing.cls, so a Poly (reduced or not) gives the answer of its
class, a number becomes a constant, and a class of another ring is refused
with a ValueError that says "different ring"."""

from fractions import Fraction

import pytest

from chowcalc.bundles import (BundleClass, chern_character,
                              chern_from_character, chi_of_character,
                              grr_push_curve, twist)
from chowcalc.poly import parse_poly
from chowcalc.rings import (blowup_threefold_along_curve,
                            integrate_on_hyperplane_section, product_p1,
                            projective_bundle, projective_space)

# each ring has a twin: the same constructor, so the same variables, but
# another ring object
P3, P3_TWIN = projective_space(3), projective_space(3)
BASE, BASE_TWIN = projective_space(2, var="t"), projective_space(2, var="t")
P1C, P1C_TWIN = product_p1(3), product_p1(3)


def _bundle_ring(base):
    t = base.var("t")
    return projective_bundle(base, [t, t * t], "z")


PB, PB_TWIN = _bundle_ring(BASE), _bundle_ring(BASE_TWIN)
TWIN = {P3: P3_TWIN, BASE: BASE_TWIN, P1C: P1C_TWIN, PB: PB_TWIN}

h, t = P3.var("h"), BASE.var("t")
a1, a2, a3 = (P1C.var("alpha_%d" % i) for i in (1, 2, 3))
E = BundleClass(P3, 2, [h, 2 * h ** 2])


def as_class(c):
    return c


def as_raw_poly(c):
    """A Poly that is not in normal form but has the class c: its rep plus
    every element of the ring's basis, each of which is 0 in the ring."""
    raw = c.rep
    for g in c.ring.gb:
        raw = raw + g
    return raw


def as_twin_class(c):
    """The same polynomial as a class of the twin ring."""
    return TWIN[c.ring].cls(c.rep)


def _ring_data(ring):
    return ring.top, list(ring.gb)


# entry name -> the entry called with every class argument passed through f
ENTRIES = {
    "cls": lambda f: P3.cls(f(h ** 2)),
    "sum": lambda f: h + f(h ** 2),
    "product": lambda f: h * f(h ** 2),
    "integrate": lambda f: P3.integrate(f(2 * h ** 3)),
    "pushforward": lambda f: PB.pushforward(f(PB.parse("z^2*t"))),
    "pullback": lambda f: PB.pullback(f(t * t)),
    "projective_bundle":
        lambda f: _ring_data(projective_bundle(BASE, [f(t), f(t * t)], "y")),
    "blowup_threefold_along_curve":
        lambda f: _ring_data(blowup_threefold_along_curve(
            P1C, f(2 * a2 * a3 + a1 * a3), 1)),
    "integrate_on_hyperplane_section":
        lambda f: integrate_on_hyperplane_section(P1C, f(a1 + a2),
                                                  f(a1 * a3)),
    "BundleClass": lambda f: BundleClass(P3, 2, [f(h), f(2 * h ** 2)]),
    "twist": lambda f: twist(E, f(-h)),
    "chern_from_character":
        lambda f: chern_from_character(P3, f(chern_character(E))),
    "chi_of_character":
        lambda f: chi_of_character(P3, f(chern_character(E))),
    "grr_push_curve": lambda f: grr_push_curve(P3, 0, f(h ** 2), f(h ** 3), 2),
}


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_a_poly_gives_the_answer_of_its_class(name):
    entry = ENTRIES[name]
    assert entry(as_raw_poly) == entry(as_class)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_a_class_of_another_ring_is_refused(name):
    with pytest.raises(ValueError, match="different ring"):
        ENTRIES[name](as_twin_class)


def test_the_refusal_names_what_and_both_rings():
    with pytest.raises(ValueError, match="curve class lives on P1\\^3, a "
                                         "different ring from P1\\^3"):
        blowup_threefold_along_curve(P1C, as_twin_class(a1 * a2), 0)
    with pytest.raises(ValueError, match="twist class lives on P3, a "
                                         "different ring from P3"):
        twist(E, as_twin_class(h))


def test_numbers_become_constants():
    assert P3.cls(2) == 2 * P3.one()
    assert P3.cls(Fraction(1, 2)) == P3.const(Fraction(1, 2))
    assert BundleClass(P3, 1, [0]) == BundleClass.trivial(P3, 1)
    assert P3.integrate(5) == 0


@pytest.mark.parametrize("value", [1.5, True], ids=["float", "bool"])
def test_inexact_numbers_are_refused(value):
    with pytest.raises(TypeError):
        P3.cls(value)


def test_a_curve_that_is_zero_in_the_ring_is_refused():
    with pytest.raises(ValueError,
                       match="curve class must be a nonzero class of "
                             "codimension 2"):
        blowup_threefold_along_curve(P1C, parse_poly("alpha_1^2", P1C.sig), 0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_an_unreduced_curve_blows_up_as_its_normal_form(d):
    raw = parse_poly("%d*alpha_2*alpha_3 + alpha_1^2" % d, P1C.sig)
    reduced = P1C.parse("%d*alpha_2*alpha_3" % d)
    assert raw != reduced.rep
    from_raw = blowup_threefold_along_curve(P1C, raw, 0)
    from_class = blowup_threefold_along_curve(P1C, reduced, 0)
    for text in ("e^3", "alpha_1*e^2", "alpha_2*e^2", "alpha_3*e^2",
                 "alpha_1*alpha_2*alpha_3"):
        assert from_raw.integrate(from_raw.parse(text)) == \
            from_class.integrate(from_class.parse(text))
    # a rational curve of class d alpha_2 alpha_3 has degree d on alpha_1
    # and -K.C = 2d, so e^3 = -(2d - 2)
    assert from_raw.integrate(from_raw.parse("alpha_1*e^2")) == -d
    assert from_raw.integrate(from_raw.parse("e^3")) == 2 - 2 * d
