"""Chern calculus: Whitney, Segre, character inversion, HRR, GRR."""

import random
from fractions import Fraction
from math import factorial

import pytest

from chowcalc.bundles import (BundleClass, _todd_series_coefficients,
                              chern_character,
                              chern_from_character, chi_of_character, dual,
                              grr_push_curve, hrr_chi, segre, segre_component,
                              tangent_bundle, todd_class, twist,
                              wedge2_rank3, whitney_quotient, whitney_sum)
from chowcalc import checks
from chowcalc.poly import GroebnerBasis
from chowcalc.rings import catalog, projective_space

SEED = 20260826
N_CASES = 200


def random_bundle(ring, rng, max_rank=4, coeff_range=3):
    h = ring.var("h")
    rank = rng.randint(1, max_rank)
    chern = [rng.randint(-coeff_range, coeff_range) * h ** i
             for i in range(1, min(rank, ring.dim) + 1)]
    return BundleClass(ring, rank, chern)


class TestAlgebra:
    def test_whitney_quotient_inverts_sum(self):
        p5 = projective_space(5)
        rng = random.Random(SEED)
        for _ in range(N_CASES):
            e = random_bundle(p5, rng)
            f = random_bundle(p5, rng)
            total = whitney_sum(e, f)
            assert whitney_quotient(total, e) == f
            assert whitney_quotient(total, f) == e

    def test_segre_inverts_total_chern(self):
        p5 = projective_space(5)
        rng = random.Random(SEED + 1)
        for _ in range(N_CASES):
            e = random_bundle(p5, rng)
            product = segre(e) * e.total_chern()
            assert (product - p5.one()).is_zero()

    def test_segre_of_line_bundle(self):
        p5 = projective_space(5)
        h = p5.var("h")
        tautological = BundleClass.line(p5, -h)
        for k in range(6):
            assert (segre_component(tautological, k) - h ** k).is_zero()

    def test_dual_and_twist_are_involutions(self):
        p5 = projective_space(5)
        h = p5.var("h")
        rng = random.Random(SEED + 2)
        for _ in range(100):
            e = random_bundle(p5, rng)
            assert dual(dual(e)) == e
            d = rng.randint(-2, 2) * h
            assert twist(twist(e, d), -d) == e

    def test_bundle_refuses_a_class_of_another_ring(self):
        p3, other = projective_space(3), projective_space(3)
        with pytest.raises(ValueError, match="different ring"):
            BundleClass(p3, 2, [p3.var("h"), other.var("h") ** 2])
        # Polys in the ring's variables are taken as they are
        h = p3.var("h")
        assert BundleClass(p3, 1, [h.rep]) == BundleClass.line(p3, h)

    def test_series_refuse_a_class_of_another_ring(self):
        p3, other = projective_space(3), projective_space(3)
        h, g = p3.var("h"), other.var("h")
        with pytest.raises(ValueError, match="different ring"):
            chern_from_character(p3, other.one() + g)
        with pytest.raises(ValueError, match="different ring"):
            grr_push_curve(p3, 0, g ** 2, h ** 3, 0)
        with pytest.raises(ValueError, match="different ring"):
            grr_push_curve(p3, 0, h ** 2, g ** 3, 0)

    def test_twist_of_line_bundle_adds_divisors(self):
        p3 = projective_space(3)
        h = p3.var("h")
        assert twist(BundleClass.line(p3, 2 * h), h) == \
            BundleClass.line(p3, 3 * h)

    def test_twist_of_a_rank_0_class(self):
        # (O(1) - O)(1) = O(2) - O(1): c = (1 + 2h)/(1 + h)
        p3 = projective_space(3)
        h = p3.var("h")
        virtual = whitney_quotient(BundleClass.line(p3, h),
                                   BundleClass.trivial(p3, 1))
        assert virtual.rank == 0
        assert twist(virtual, h) == BundleClass(p3, 0, [h, -h ** 2, h ** 3])
        assert twist(virtual, h) == whitney_quotient(
            BundleClass.line(p3, 2 * h), BundleClass.line(p3, h))

    def test_twist_of_virtual_classes(self):
        # classes with c_j above the rank, and ranks <= 0, twist back and
        # twist the way their sums and quotients of lines do
        p5 = projective_space(5)
        h = p5.var("h")
        rng = random.Random(SEED + 6)
        for _ in range(50):
            lines = [BundleClass.line(p5, rng.randint(-3, 3) * h)
                     for _ in range(4)]
            sub = whitney_sum(whitney_sum(lines[1], lines[2]), lines[3])
            e = whitney_quotient(lines[0], sub)
            assert e.rank == -2
            d = rng.randint(-2, 2) * h
            assert twist(twist(e, d), -d) == e
            twisted = [twist(line, d) for line in lines]
            sub_twisted = whitney_sum(whitney_sum(twisted[1], twisted[2]),
                                      twisted[3])
            assert twist(e, d) == whitney_quotient(twisted[0], sub_twisted)

    def test_wedge2_of_split_rank3(self):
        p5 = projective_space(5)
        h = p5.var("h")
        for a, b, c in [(1, 2, 3), (0, 1, -1), (2, 2, 2), (-1, 0, 4)]:
            e = whitney_sum(whitney_sum(BundleClass.line(p5, a * h),
                                        BundleClass.line(p5, b * h)),
                            BundleClass.line(p5, c * h))
            split = whitney_sum(
                whitney_sum(BundleClass.line(p5, (a + b) * h),
                            BundleClass.line(p5, (a + c) * h)),
                BundleClass.line(p5, (b + c) * h))
            assert wedge2_rank3(e) == split

    def test_chern_degree_validation(self):
        p3 = projective_space(3)
        h = p3.var("h")
        with pytest.raises(ValueError):
            BundleClass(p3, 2, [h * h])
        with pytest.raises(ValueError):
            twist(BundleClass.trivial(p3, 2), h * h)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
    def test_rank_must_be_an_integer(self, bad):
        p3 = catalog("P3")
        with pytest.raises(TypeError):
            BundleClass(p3, bad, [p3.var("h")])

    def test_negative_rank_stays_legal_for_virtual_classes(self):
        p3 = catalog("P3")
        h = p3.var("h")
        assert BundleClass(p3, -1, [h]).rank == -1
        e = BundleClass.line(p3, h)
        assert whitney_quotient(e, BundleClass.trivial(p3, 2)).rank == -1

    def test_chern_list_padding(self):
        p3 = projective_space(3)
        h = p3.var("h")
        e = BundleClass(p3, 2, [h])
        assert len(e.chern) == 3
        assert e.c(2).is_zero() and e.c(3).is_zero()
        assert e.c(0) == p3.one() and e.c(7).is_zero()

    def test_whitney_segre_suite_normal_forms(self, monkeypatch):
        """Pinned count for checks._suite_whitney_segre(Random(2)): padding,
        constants and linear operations make no normal form.  It was 5,777
        when each of them made one, 1,213 of them from padding zeros and
        787 from scalar operands."""
        calls = []
        normal_form = GroebnerBasis.normal_form

        def counting(gb, p):
            calls.append(p)
            return normal_form(gb, p)

        monkeypatch.setattr(GroebnerBasis, "normal_form", counting)
        assert checks._suite_whitney_segre(random.Random(2)) == 0
        assert len(calls) == 2989


class TestCharacter:
    def test_character_round_trip(self):
        p5 = projective_space(5)
        rng = random.Random(SEED + 3)
        for _ in range(N_CASES):
            e = random_bundle(p5, rng)
            assert chern_from_character(p5, chern_character(e)) == e

    def test_character_of_line_bundle_is_exponential(self):
        p5 = projective_space(5)
        h = p5.var("h")
        ch = chern_character(BundleClass.line(p5, 3 * h))
        expected = p5.zero()
        for k in range(6):
            expected = expected + Fraction(3 ** k, factorial(k)) * h ** k
        assert (ch - expected).is_zero()

    def test_character_is_additive_on_sums(self):
        p5 = projective_space(5)
        rng = random.Random(SEED + 4)
        for _ in range(100):
            e = random_bundle(p5, rng)
            f = random_bundle(p5, rng)
            lhs = chern_character(whitney_sum(e, f))
            rhs = chern_character(e) + chern_character(f)
            assert (lhs - rhs).is_zero()

    def test_non_integral_rank_rejected(self):
        p3 = projective_space(3)
        with pytest.raises(ValueError):
            chern_from_character(p3, p3.const(Fraction(1, 2)))


class TestRiemannRoch:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_chi_of_twists_of_structure_sheaf(self, n):
        ring = projective_space(n)
        h = ring.var("h")
        for k in range(-3, 5):
            # chi(O(k)) = (k+1)...(k+n)/n!, valid for every integer k
            expected = Fraction(1)
            for i in range(1, n + 1):
                expected *= k + i
            expected /= factorial(n)
            assert hrr_chi(BundleClass.line(ring, k * h)) == expected

    def test_chi_of_structure_sheaf_is_one(self):
        for name in ("P2", "P5", "P1^2", "P1^4"):
            ring = catalog(name)
            assert hrr_chi(BundleClass.trivial(ring, 1)) == 1

    def test_chi_scales_with_rank(self):
        p3 = projective_space(3)
        rng = random.Random(SEED + 5)
        for _ in range(50):
            r = rng.randint(1, 5)
            assert hrr_chi(BundleClass.trivial(p3, r)) == r

    def test_todd_class_top_term_matches_chi(self):
        # integrating the full Todd class is chi(O) again
        p5 = projective_space(5)
        td = todd_class(tangent_bundle(p5))
        top = p5.cls(td.rep.homogeneous_part(5))
        assert p5.integrate(top) == 1


def series_todd_coefficients(top):
    """Reference: log(x / (1 - e^-x)) by a power-series inverse and log."""
    exp_neg = [Fraction((-1) ** k, factorial(k)) for k in range(top + 2)]
    f = [-exp_neg[k + 1] for k in range(top + 1)]   # (1 - e^-x)/x
    h = [Fraction(1)] + [Fraction(0)] * top          # 1/f
    for k in range(1, top + 1):
        h[k] = -sum(f[i] * h[k - i] for i in range(1, k + 1))
    hm1 = [Fraction(0)] + h[1:]
    g = [Fraction(0)] * (top + 1)
    power = [Fraction(1)] + [Fraction(0)] * top      # (h-1)^m
    for m in range(1, top + 1):
        nxt = [Fraction(0)] * (top + 1)
        for i in range(top + 1):
            for j in range(1, top + 1 - i):
                nxt[i + j] += power[i] * hm1[j]
        power = nxt
        for k in range(top + 1):
            g[k] += Fraction((-1) ** (m - 1), m) * power[k]
    return g


class TestToddSeries:
    def test_first_coefficients(self):
        assert _todd_series_coefficients(8) == [
            0, Fraction(1, 2), Fraction(-1, 24), 0, Fraction(1, 2880), 0,
            Fraction(-1, 181440), 0, Fraction(1, 9676800)]

    @pytest.mark.parametrize("top", range(13))
    def test_closed_form_matches_series_logarithm(self, top):
        assert _todd_series_coefficients(top) == series_todd_coefficients(top)


class TestCurvePushforward:
    def test_pushed_character_has_curve_leading_term(self):
        p3 = projective_space(3)
        h = p3.var("h")
        rng = random.Random(SEED + 6)
        for _ in range(100):
            mult = rng.randint(1, 5)
            genus = rng.randint(0, 3)
            degree = rng.randint(-4, 6)
            ch = grr_push_curve(p3, genus, mult * h ** 2, h ** 3, degree)
            lead = p3.cls(ch.rep.homogeneous_part(2))
            assert (lead - mult * h ** 2).is_zero()
            assert chi_of_character(p3, ch) == degree + 1 - genus

    def test_twisted_cubic_in_p3(self):
        p3 = projective_space(3)
        h = p3.var("h")
        # degree-3 rational curve, O(k) on it: chi = 3k + 1
        for k in range(-2, 4):
            ch = grr_push_curve(p3, 0, 3 * h ** 2, h ** 3, 3 * k)
            assert chi_of_character(p3, ch) == 3 * k + 1

    def test_skyscraper_case(self):
        p3 = projective_space(3)
        h = p3.var("h")
        ch = grr_push_curve(p3, 0, 2 * h ** 3, h ** 3, 0)
        assert (ch - 2 * h ** 3).is_zero()
        assert chi_of_character(p3, ch) == 2

    def test_bad_curve_class_rejected(self):
        p3 = projective_space(3)
        h = p3.var("h")
        with pytest.raises(ValueError):
            grr_push_curve(p3, 0, h, h ** 3, 0)
        with pytest.raises(ValueError):
            grr_push_curve(p3, 0, p3.zero(), h ** 3, 0)
