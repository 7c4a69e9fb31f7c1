"""`groebner_basis` stops once the ideal holds every monomial of W
consecutive degrees (W the largest weight), past every generator degree.

A monomial of any higher degree is then divisible by a lead, so no basis
element can follow.  The bases must still equal Buchberger's in
tests/reference_groebner.py; B's and G26's steps stop early, and so do the
ones of a small weighted ideal below.  The minors ideal of `cubic-locus`
cuts out a curve, so no degree of it is ever full and the stop never
fires there.
"""

import pytest

from chowcalc import pencil, poly
from chowcalc.poly import (Signature, groebner_basis, mono_divides,
                           mono_lcm, parse_poly)
from chowcalc.rings import catalog

from reference_groebner import buchberger

WEIGHTED = Signature.make([("x", 1), ("y", 1), ("z", 2)])


def small_ideal():
    """A zero-dimensional weighted ideal whose last S-pair degree (8) lies
    past its first two full degrees (5 and 6)."""
    return [parse_poly(t, WEIGHTED)
            for t in ("x*y + z", "x^2 + x*y - 2*z",
                      "2*y^4 - x^3*y + 3*z^2")]


def minors_ideal():
    return pencil.Quasimonad.built_in().minor_ideal_generators()


IDEALS = {name: (lambda name=name: catalog(name).relations)
          for name in ("P5", "P1^4", "G26", "Gw36", "B")}
IDEALS["small"] = small_ideal
IDEALS["minors"] = minors_ideal


def steps(monkeypatch, gens):
    """The basis and the degrees groebner_basis builds a step for."""
    degrees = []
    monomials_of_degree = poly.monomials_of_degree

    def recording(sig, d):
        degrees.append(d)
        return monomials_of_degree(sig, d)

    monkeypatch.setattr(poly, "monomials_of_degree", recording)
    basis = groebner_basis(gens)
    monkeypatch.undo()
    return basis, degrees


def criterion_stop(gens, basis):
    """Where Buchberger's criterion alone lets the degree loop end: the
    largest generator degree and lcm degree of two non-coprime leads."""
    sig = basis[0].sig
    leads = [g.leading_monomial() for g in basis]
    lcms = [sig.wdeg(mono_lcm(a, b)) for i, a in enumerate(leads)
            for b in leads[:i] if any(x and y for x, y in zip(a, b))]
    return max([g.degree() for g in gens] + lcms)


def full(gens, sig, d):
    basis = groebner_basis(gens)
    return all(any(mono_divides(g.leading_monomial(), m) for g in basis)
               for m in poly.monomials_of_degree(sig, d))


@pytest.mark.parametrize("name", list(IDEALS))
def test_basis_equals_buchberger(name, monkeypatch):
    gens = IDEALS[name]()
    basis, degrees = steps(monkeypatch, gens)
    assert basis == buchberger(gens)
    assert degrees == list(range(degrees[0], degrees[-1] + 1))


@pytest.mark.parametrize("name", ["B", "G26", "small"])
def test_the_stop_fires(name, monkeypatch):
    gens = IDEALS[name]()
    basis, degrees = steps(monkeypatch, gens)
    sig = basis[0].sig
    last = degrees[-1]
    assert last < criterion_stop(gens, basis)
    width = max(sig.weights)
    assert all(full(gens, sig, d) for d in range(last - width + 1, last + 1))
    assert not all(full(gens, sig, d) for d in range(last - width, last))


def test_b_skips_its_degree_seven_step(monkeypatch):
    _, degrees = steps(monkeypatch, catalog("B").relations)
    assert degrees == [2, 3, 4, 5, 6]


def test_the_minors_ideal_never_stops_early(monkeypatch):
    gens = minors_ideal()
    basis, degrees = steps(monkeypatch, gens)
    assert degrees[-1] == criterion_stop(gens, basis)
    sig = basis[0].sig
    assert not any(full(gens, sig, d) for d in range(degrees[-1] + 4))
