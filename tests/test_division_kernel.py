"""The heap-ordered division loop against the textbook division.

`reduce_poly` keeps its pending monomials in a heap; `reference_groebner.divide`
rescans for the largest one on every step and shares no code with it.  On
seeded random polynomials of mixed degree the two remainders must be equal,
both modulo each ring's reduced basis and modulo its raw relations, where
the remainder depends on the order in which terms are cancelled.
"""

import functools
import random
from fractions import Fraction

import pytest
from reference_groebner import divide

from chowcalc.pencil import Quasimonad
from chowcalc.poly import GroebnerBasis, Poly, reduce_poly
from chowcalc.rings import (blowup_threefold_along_curve, catalog,
                            product_ring, projective_bundle, projective_space)

CATALOG = ("P5", "P1^4", "G26", "Gw36", "B", "FB", "I", "Pi")


def _bundle_over_g26():
    g = catalog("G26")
    return projective_bundle(g, [g.parse("2*h_2"), g.parse("h_2^2 - c_2")],
                             "z")


def _product():
    return product_ring(projective_space(2, var="v"), catalog("Gw36"))


def _blowup():
    base = catalog("P1^3")
    curve = base.parse("alpha_1*alpha_2 + 2*alpha_1*alpha_3")
    return blowup_threefold_along_curve(base, curve, 0)


def _minors():
    gens = Quasimonad.built_in().minor_ideal_generators()
    return GroebnerBasis(gens), gens


BUILDERS = dict(
    {name: functools.partial(catalog, name) for name in CATALOG},
    **{"Proj over G26": _bundle_over_g26, "P2[v] x Gw36": _product,
       "Bl P1^3": _blowup})


@functools.lru_cache(maxsize=None)
def basis_and_relations(name):
    if name == "minors":
        return _minors()
    ring = BUILDERS[name]()
    return ring.gb, ring.relations


def random_poly(rng, gb, terms=8):
    """Up to `terms` terms, each exponent up to one past any lead's."""
    sig = gb.sig
    bound = [max(lead[i] for lead in gb.leads) + 1 for i in range(len(sig))]
    out = {}
    for _ in range(rng.randint(1, terms)):
        mono = tuple(rng.randint(0, b) for b in bound)
        out[mono] = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 1, 2, 3)))
    return Poly(sig, out)


def is_canonical(c):
    return (type(c) is int) or (type(c) is Fraction and c.denominator != 1)


@pytest.mark.parametrize("name", list(BUILDERS) + ["minors"])
def test_heap_division_matches_textbook_division(name):
    gb, relations = basis_and_relations(name)
    rng = random.Random("division:" + name)
    degrees = set()
    for _ in range(25):
        p = random_poly(rng, gb)
        degrees.add(p.degree())
        got = reduce_poly(p, gb.elements)
        assert got == divide(p, gb.elements)
        assert gb.normal_form(p) == got
        assert all(is_canonical(c) for c in got.terms.values())
        # not a Groebner basis: the remainder depends on the order of steps
        assert reduce_poly(p, relations) == divide(p, relations)
    assert len(degrees) > 1


def test_non_monic_divisors_divide_exactly():
    gb, _ = basis_and_relations("B")
    rng = random.Random(5)
    scaled = [g.scale(Fraction(rng.choice((2, 3, -4)), rng.choice((1, 5))))
              for g in gb]
    for _ in range(20):
        p = random_poly(rng, gb)
        got = reduce_poly(p, scaled)
        assert got == divide(p, scaled) == gb.normal_form(p)
        assert all(is_canonical(c) for c in got.terms.values())
