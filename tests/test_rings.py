"""Ring catalog, integration anchors, and independently derived oracles."""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from reference_groebner import buchberger

from chowcalc.bundles import BundleClass, twist
from chowcalc.linalg import rank
from chowcalc.pencil import Quasimonad
from chowcalc.poly import (GroebnerBasis, Poly, Signature, exact_div,
                           grevlex_key, parse_poly)
from chowcalc.rings import (ChowRing, blowup_threefold_along_curve, catalog,
                            integrate_on_hyperplane_section, presented,
                            product_p1, product_ring, projective_bundle,
                            projective_space, relative_canonical)


def ballot_path_count(steps_up, steps_down):
    """Lattice-path oracle: monotone words where every prefix has at least
    as many first letters as second letters."""
    table = {(0, 0): 1}
    for a in range(steps_up + 1):
        for b in range(steps_down + 1):
            if (a, b) == (0, 0):
                continue
            total = 0
            if a > 0:
                total += table.get((a - 1, b), 0)
            if b > 0 and b <= a:
                total += table.get((a, b - 1), 0)
            table[(a, b)] = total if b <= a else 0
    return table[(steps_up, steps_down)]


def box_partition_counts(rows, cols):
    """Number of partitions inside a rows x cols box, graded by size."""
    counts = [0] * (rows * cols + 1)
    def rec(prefix, remaining_rows, limit):
        if remaining_rows == 0:
            counts[sum(prefix)] += 1
            return
        for part in range(limit + 1):
            rec(prefix + [part], remaining_rows - 1, part)
    rec([], rows, cols)
    return counts


class TestDerivedOracles:
    def test_g26_degree_by_lattice_paths(self):
        g = catalog("G26")
        assert g.integrate(g.var("h_2") ** 8) == ballot_path_count(4, 4) == 14

    def test_g26_betti_numbers_by_box_partitions(self):
        assert catalog("G26").hilbert_function() == box_partition_counts(2, 4)

    def test_gw36_graded_dimensions_by_invariant_subring(self):
        # rank of the span of e1^a e2^b e3^c inside the x,y,z presentation
        sig = Signature.make([("x", 1), ("y", 1), ("z", 1)])
        gb = GroebnerBasis([parse_poly("(x*y*z)^2", sig),
                            parse_poly("x^2*y^2 + y^2*z^2 + z^2*x^2", sig),
                            parse_poly("x^2 + y^2 + z^2", sig)])
        e1 = parse_poly("x + y + z", sig)
        e2 = parse_poly("x*y + y*z + z*x", sig)
        e3 = parse_poly("x*y*z", sig)
        dims = []
        for d in range(7):
            images = []
            for a in range(d + 1):
                for b in range(d + 1):
                    for c in range(d + 1):
                        if a + 2 * b + 3 * c == d:
                            images.append(gb.normal_form(
                                e1 ** a * e2 ** b * e3 ** c))
            columns = sorted({m for p in images for m in p.terms})
            rows = [[p.terms.get(col, Fraction(0)) for col in columns]
                    for p in images]
            dims.append(rank(rows) if rows else 0)
        assert dims == [1, 1, 1, 2, 1, 1, 1]
        assert catalog("Gw36").hilbert_function() == dims


class TestCatalog:
    @pytest.mark.parametrize("name,dim,tau,n", [
        pytest.param(name, dim, tau, n, id="%s-%d-%d" % (name, dim, n))
        for name, dim, tau, n in [
            ("P3", 3, "h^3", 1), ("P5", 5, "h^5", 1),
            ("P1^4", 4, "alpha_1*alpha_2*alpha_3*alpha_4", 1),
            ("G26", 8, "h_2^8", 14), ("Gw36", 6, "c_1'^6", 16),
            ("B", 4, "h_3^4", 16)]
    ])
    def test_direct_ring_normalization(self, name, dim, tau, n):
        ring = catalog(name)
        assert ring.dim == dim
        hf = ring.hilbert_function()
        assert len(hf) == dim + 1 and hf[dim] == 1
        assert ring.integrate(ring.parse(tau)) == n
        assert len(ring.top) == 1

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog("G27")

    def test_b_presentation_values(self):
        b = catalog("B")
        h3 = b.var("h_3")
        a1, a2 = b.var("a_1"), b.var("a_2")
        assert b.integrate(h3 ** 4) == 16
        assert b.integrate(a1 * a2) == 2
        assert b.integrate(a1 * h3 ** 2) == 6
        assert b.integrate(a1 * a1) == 3
        assert b.hilbert_function() == [1, 1, 4, 1, 1]

    def test_fb_section_model(self):
        fb = catalog("FB")
        h2 = fb.parse("alpha_1 + alpha_2 + alpha_3 + alpha_4")
        assert fb.dim == 3
        assert fb.integrate(h2 ** 3) == 24
        assert fb.integrate(fb.parse("alpha_1*alpha_2*alpha_3")) == 1

    def test_i_bundle_model(self):
        ring = catalog("I")
        h3p = ring.var("h_3'")
        assert ring.dim == 4
        assert ring.integrate(h3p ** 4) == 64
        assert str(relative_canonical(ring)) == \
            "-2*h_3' + 2*alpha_1 + 2*alpha_2 + 2*alpha_3 + 2*alpha_4"

    def test_pi_bundle_model(self):
        pi = catalog("Pi")
        h, sigma = pi.var("h"), pi.var("sigma")
        assert pi.dim == 4
        assert pi.integrate(sigma * h ** 3) == 1
        assert pi.integrate(2 * h * sigma * (h + 2 * sigma) ** 2) == 2

    def test_pi_rank_counts_zero_chern_classes(self):
        # c(E) = 1 + 2 sigma, with c_2 = c_3 = c_4 = 0, still has rank 4
        pi = catalog("Pi")
        assert pi.rank == 4
        assert pi.zeta == "h"
        assert str(relative_canonical(pi)) == "-4*h + 2*sigma"

    @pytest.mark.parametrize("keyword", [
        {"zeta": "h"}, {"rank": 2},
        {"tau": Poly.variable(Signature.make([("h", 1)]), "h"), "n": 1}])
    def test_rank_and_zeta_are_not_constructor_inputs(self, keyword):
        p1 = catalog("P1")
        with pytest.raises(TypeError):
            ChowRing("X", p1.sig, p1.relations, 1, **keyword)

    def test_power_exponent_must_be_a_nonnegative_integer(self):
        p3 = catalog("P3")
        h = p3.var("h")
        assert h ** 2 == h * h and h ** 0 == p3.one()
        for bad in (True, False, 2.0, 0.5):
            with pytest.raises(TypeError):
                h ** bad
        with pytest.raises(ValueError):
            h ** -1

    def test_integration_degree_rules(self):
        p3 = catalog("P3")
        h = p3.var("h")
        assert p3.integrate(h ** 3) == 1
        assert p3.integrate(h ** 2) == 0
        with pytest.raises(ValueError):
            p3.integrate(h + h ** 3)


class TestConstructors:
    def test_projective_space_anchor(self):
        p5 = projective_space(5)
        assert p5.integrate(p5.var("h") ** 5) == 1
        assert p5.integrate(p5.var("h") ** 6) == 0

    def test_product_p1_top_class(self):
        ring = product_p1(3)
        top = ring.parse("alpha_1*alpha_2*alpha_3")
        assert ring.integrate(top) == 1
        assert ring.integrate(ring.parse("alpha_1^2*alpha_2")) == 0

    def test_product_ring_splits_integrals(self):
        ring = product_ring(projective_space(1, var="sigma"), catalog("B"))
        sigma, h3 = ring.var("sigma"), ring.var("h_3")
        assert ring.dim == 5
        assert ring.integrate(sigma * h3 ** 4) == 16
        assert ring.integrate(h3 ** 4 * ring.one()) == 0

    def test_projective_bundle_pushforward(self):
        base = projective_space(2, var="t")
        t = base.var("t")
        pb = projective_bundle(base, [(2 * t).rep, (t * t).rep], "z")
        z = pb.var("z")
        # rank 2: z^2 = 2t z - t^2, so z^(1+k) pushes to a degree-k class
        assert pb.pushforward(z).is_zero() is False
        assert (pb.pushforward(z) - base.one()).is_zero()
        assert pb.integrate(z ** 3) == base.integrate(3 * t * t)

    def test_pullback_pushforward_projection_formula(self):
        ring = catalog("I")
        base = ring.base
        a1 = base.var("alpha_1")
        h3p = ring.var("h_3'")
        assert (ring.pushforward(ring.pullback(a1) * h3p) - a1).is_zero()
        assert ring.pushforward(ring.pullback(a1)).is_zero()

    def test_blowup_ruling_line(self):
        base = catalog("P1^3")
        t = [base.var("alpha_%d" % i) for i in (1, 2, 3)]
        # a ruling line has tri-degree (0,0,1) and genus 0: e^3 = 0
        bl = blowup_threefold_along_curve(base, (t[0] * t[1]).rep, 0)
        e = bl.var("e")
        assert bl.integrate(e ** 3) == 0
        assert bl.integrate(e * bl.var("alpha_1") * bl.var("alpha_2")) == 0

    def test_blowup_refuses_a_zero_or_mixed_degree_curve(self):
        base = catalog("P1^3")
        t = [base.var("alpha_%d" % i) for i in (1, 2, 3)]
        for curve in (base.zero(), t[0] * t[1] + t[2]):
            with pytest.raises(ValueError, match="curve class must be a "
                               "nonzero class of codimension 2"):
                blowup_threefold_along_curve(base, curve, 0)

    def test_blowup_along_two_disjoint_lines(self):
        # arithmetic genus -1: e^3 is the sum over the two lines, 0 + 0
        base = catalog("P1^3")
        t = [base.var("alpha_%d" % i) for i in (1, 2, 3)]
        bl = blowup_threefold_along_curve(base, 2 * t[0] * t[1], -1)
        assert bl.integrate(bl.var("e") ** 3) == 0

    def test_blowup_sextic_centre(self):
        base = catalog("P1^3")
        t = [base.var("alpha_%d" % i) for i in (1, 2, 3)]
        curve = 2 * ((t[1] * t[2]).rep + (t[0] * t[2]).rep
                     + (t[0] * t[1]).rep)
        bl = blowup_threefold_along_curve(base, curve, 1)
        e = bl.var("e")
        tb = [bl.var("alpha_%d" % i) for i in (1, 2, 3)]
        h = tb[0] + tb[1] + tb[2]
        assert bl.integrate((2 * h - e) ** 3) == 24
        assert bl.integrate((h - e) ** 3) == 0
        assert bl.integrate(e * tb[0] * tb[1]) == 0
        assert bl.integrate(tb[0] * e ** 2) == -2

    def test_top_piece_must_be_one_dimensional(self):
        sig = Signature.make([("x", 1), ("y", 1)])
        x, y = Poly.variable(sig, "x"), Poly.variable(sig, "y")
        ring = presented("Q", sig, [x * x, y * y], 2, x * y, 2)
        assert ring.top == {(1, 1): 2}
        with pytest.raises(ValueError):
            presented("Q3", sig, [x ** 3, y ** 3], 2, x * y, 1)
        # every ring has a basis: no relations, no ring
        with pytest.raises(ValueError):
            presented("S", sig, [], 2, x * y, 1)
        with pytest.raises(ValueError):
            ChowRing("S", sig, [], 2)
        bare = ChowRing("Q", sig, [x * x, y * y], 2)
        assert bare.top is None
        with pytest.raises(ValueError):
            bare.integrate(bare.var("x") * bare.var("y"))

    def test_derived_rings_refuse_a_class_of_another_ring(self):
        # same variable names, different ring objects
        base = projective_space(2, var="t")
        other = projective_space(3, var="t")
        with pytest.raises(ValueError, match="lives on P3"):
            projective_bundle(base, [other.var("t")], "z")
        p1_cubed = catalog("P1^3")
        line = product_p1(3).parse("alpha_1*alpha_2")
        with pytest.raises(ValueError, match="lives on P1\\^3"):
            blowup_threefold_along_curve(p1_cubed, line, 0)
        # a Poly in the wrong variables is refused by its signature
        with pytest.raises(ValueError, match="signature"):
            projective_bundle(base, [Poly.variable(p1_cubed.sig, "alpha_1")],
                              "z")
        with pytest.raises(ValueError, match="signature"):
            blowup_threefold_along_curve(p1_cubed, (base.var("t") ** 2).rep,
                                         0)

    def test_bundle_chern_classes_must_be_homogeneous(self):
        base = projective_space(2, var="t")
        t = base.var("t")
        with pytest.raises(ValueError):
            projective_bundle(base, [(t * t).rep], "z")
        with pytest.raises(ValueError):
            projective_bundle(base, [(t + t * t).rep, (t * t).rep], "z")

    def test_hyperplane_section_integrals(self):
        g = catalog("G26")
        h2, c2 = g.var("h_2"), g.var("c_2")
        assert integrate_on_hyperplane_section(
            g, h2, 4 * (h2 ** 2 - c2) ** 2 * h2 ** 3) == 24
        assert integrate_on_hyperplane_section(g, h2, h2 ** 7) == 14
        assert integrate_on_hyperplane_section(g, h2, h2 ** 5) == 0

    def test_hyperplane_class_must_be_a_divisor(self):
        g = catalog("G26")
        h2 = g.var("h_2")
        for hyperplane, x in ((h2 ** 2, h2 ** 6), (h2 + h2 ** 2, h2 ** 7),
                              (g.one(), h2 ** 8)):
            with pytest.raises(ValueError):
                integrate_on_hyperplane_section(g, hyperplane, x)
        with pytest.raises(ValueError):
            integrate_on_hyperplane_section(g, h2, h2 + h2 ** 7)


def _segre_birational_bundle():
    b = catalog("B")
    e1t = twist(BundleClass(b, 2, [-b.var("h_3"), b.var("a_1")]),
                b.var("h_3"))
    return projective_bundle(b, [e1t.c(1).rep, e1t.c(2).rep], "h",
                             label="ProjE1")


def _sextic_blowup():
    base = catalog("P1^3")
    curve = base.parse("2*alpha_2*alpha_3 + 2*alpha_1*alpha_3"
                       " + 2*alpha_1*alpha_2")
    return blowup_threefold_along_curve(base, curve, 1)


def _minors_ideal():
    gens = Quasimonad.built_in().minor_ideal_generators()
    return SimpleNamespace(gb=GroebnerBasis(gens), relations=gens)


class TestLiftedBases:
    """Every basis the program holds, graded or lifted, against Buchberger."""

    @pytest.mark.parametrize("build", [
        lambda: catalog("FB"),
        lambda: catalog("I"),
        lambda: catalog("Pi"),
        _segre_birational_bundle,
        _sextic_blowup,
        lambda: product_ring(projective_space(1, var="sigma"), catalog("B")),
        lambda: catalog("P5"),
        lambda: catalog("P1^4"),
        lambda: catalog("G26"),
        lambda: catalog("Gw36"),
        lambda: catalog("B"),
        _minors_ideal,
    ], ids=["FB", "I", "Pi", "ProjE1", "blowup-P1^3", "P1xB",
            "P5", "P1^4", "G26", "Gw36", "B", "minors"])
    def test_basis_equals_buchberger(self, build):
        ring = build()
        assert ring.gb.elements == buchberger(ring.relations)


XYZ = Signature.make([("x", 1), ("y", 1), ("z", 1)])


def _monic(p):
    _, lc = p.leading_term()
    return p.scale(exact_div(1, lc))


class TestSympyOracle:
    """Reduced grevlex bases of weight-1 ideals agree with sympy's."""

    @pytest.mark.parametrize("gens", [
        lambda: catalog("P1^4").relations,
        lambda: catalog("P5").relations,
        lambda: _minors_ideal().relations,
        lambda: [parse_poly(t, XYZ) for t in ("x^2 - y^2", "x*y")],
        lambda: [parse_poly(t, XYZ) for t in ("x^2 - y*z", "x*y - z^2")],
        lambda: [parse_poly(t, XYZ)
                 for t in ("x^2 - y*z", "x*y - z^2", "y^3 - x*z^2")],
    ], ids=["P1^4", "P5", "minors", "xyz-a", "xyz-b", "xyz-c"])
    def test_basis_equals_sympy(self, gens):
        sympy = pytest.importorskip("sympy")
        gens = gens()
        sig = gens[0].sig
        symbols = sympy.symbols(sig.names)
        exprs = [sympy.Poly.from_dict(
                    {m: sympy.Rational(c.numerator, c.denominator)
                     for m, c in g.terms.items()}, symbols).as_expr()
                 for g in gens]
        reference = [
            _monic(Poly(sig, {m: Fraction(int(c.p), int(c.q))
                              for m, c in p.terms()}))
            for p in sympy.groebner(exprs, *symbols, order="grevlex",
                                    domain="QQ").polys]
        reference.sort(key=lambda p: grevlex_key(sig, p.leading_monomial()))
        assert GroebnerBasis(gens).elements == reference

