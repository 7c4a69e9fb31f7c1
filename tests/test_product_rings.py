"""product_ring: gated on integration rules, with pinned tangent classes.

blowup_threefold_along_curve reads a base's c_1(T), so a product's tangent
classes are checked through Hirzebruch-Riemann-Roch and Gauss-Bonnet.
"""

import pytest

from chowcalc.bundles import BundleClass, hrr_chi, tangent_bundle
from chowcalc.poly import Poly, Signature
from chowcalc.rings import (ChowRing, blowup_threefold_along_curve, catalog,
                            product_ring, projective_space)


def p1_x_p2():
    return product_ring(projective_space(1, var="s"),
                        projective_space(2, var="t"))


def p1_cubed():
    return product_ring(product_ring(projective_space(1, var="r"),
                                     projective_space(1, var="s")),
                        projective_space(1, var="t"))


@pytest.mark.parametrize("build, euler", [(p1_x_p2, 6), (p1_cubed, 8)],
                         ids=["P1xP2", "P1xP1xP1"])
def test_product_tangent_classes(build, euler):
    ring = build()
    assert ring.dim == 3
    assert hrr_chi(BundleClass.trivial(ring, 1)) == 1
    c_top = tangent_bundle(ring).c(ring.dim)
    assert ring.integrate(c_top) == sum(ring.hilbert_function()) == euler
    hyperplane = sum((ring.var(v) for v in ring.sig.names), ring.zero())
    # O(1, ..., 1): sections of the Segre embedding, 2 * 3 and 2 * 2 * 2
    assert hrr_chi(BundleClass.line(ring, hyperplane)) == euler


def test_blowup_of_a_product_reads_its_canonical_class():
    ring = p1_cubed()
    r, s, t = (ring.var(v) for v in "rst")
    # a ruling line r = s = const, genus 0, -K.C = 2: e^3 = -(2 - 2) = 0
    bl = blowup_threefold_along_curve(ring, r * s, 0)
    assert bl.integrate(bl.var("e") ** 3) == 0
    assert bl.integrate(bl.var("t") * bl.var("e") ** 2) == -1


def test_products_of_derived_rings_build():
    ring = product_ring(projective_space(1, var="s"), catalog("Pi"))
    s, sigma, h = ring.var("s"), ring.var("sigma"), ring.var("h")
    assert ring.integrate(s * sigma * h ** 3) == 1
    assert ring.integrate(s * h ** 4) == 2


def test_product_needs_integration_rules():
    sig = Signature.make([("x", 1)])
    free = ChowRing("free", sig, [Poly.variable(sig, "x") ** 2], 1)
    assert free.top is None
    with pytest.raises(ValueError, match="integration rules"):
        product_ring(projective_space(1, var="s"), free)
    with pytest.raises(ValueError, match="integration rules"):
        product_ring(free, projective_space(1, var="s"))
