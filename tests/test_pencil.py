"""Skew pencil certificates, the 12x12 flattening, and the symplectic model."""

import random
from fractions import Fraction

import pytest

from chowcalc.linalg import det, identity, rank
from chowcalc.pencil import (BETA_TEXT, FLATTENING_TEXT, PENCIL_SIG,
                             CoordinateModel, Quasimonad, SkewPencil,
                             adjugate3, beta_matrix, binary_form_gcd,
                             congruence_model_check, constant_rank_certificate,
                             elementary_skew, flatten_rank, flattening_matrix,
                             graph_plane, gw_residuals, interleaved_flattening,
                             is_isotropic, minors_locus_hilbert, pfaffian,
                             plucker_abxy, quasimonad_checks, rank_one_point,
                             rank_two_point, sub_pfaffians,
                             symplectic_product, _rational_projective_root,
                             _y_coordinates)
from chowcalc.poly import Poly, parse_poly

SEED = 20260826


def q(text):
    return parse_poly(text, PENCIL_SIG)


def add_matrices(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def random_skew(rng, n, lo=-5, hi=5):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = Fraction(rng.randint(lo, hi))
            m[i][j] = c
            m[j][i] = -c
    return m


class TestBuiltInPencil:
    def test_frozen_entries(self):
        m = beta_matrix()
        assert m[0][1] == q("u^2")
        assert m[0][2] == q("2*u*v")
        assert m[0][3] == q("v^2")
        assert m[2][5] == q("u^2")
        assert m[3][5] == q("2*u*v")
        assert m[4][5] == q("v^2")
        for i in range(6):
            assert not m[i][i]
            for j in range(6):
                assert not (m[i][j] + m[j][i])

    def test_pencil_constructor_validation(self):
        bad = beta_matrix()
        bad[0][1] = q("u")  # degree 1
        bad[1][0] = -bad[0][1]
        with pytest.raises(ValueError):
            SkewPencil(bad)
        lopsided = beta_matrix()
        lopsided[0][1] = q("u^2 + v^2")
        with pytest.raises(ValueError):
            SkewPencil(lopsided)

    def test_rank_profile(self):
        p = SkewPencil.built_in()
        for u, v in ((1, 0), (0, 1), (1, 1), (2, -3), (5, 7)):
            assert p.rank_at(u, v) == 4


class TestPfaffian:
    def test_two_by_two(self):
        a = q("u^2")
        assert pfaffian([[Poly.zero(PENCIL_SIG), a],
                         [-a, Poly.zero(PENCIL_SIG)]]) == a

    def test_odd_size_rejected(self):
        z = Fraction(0)
        with pytest.raises(ValueError):
            pfaffian([[z]])

    def test_non_skew_rejected(self):
        with pytest.raises(ValueError):
            pfaffian([[Fraction(0), Fraction(1)],
                      [Fraction(1), Fraction(0)]])

    def test_built_in_pfaffian_vanishes(self):
        assert not SkewPencil.built_in().pfaffian()

    def test_pfaffian_squared_is_determinant(self):
        rng = random.Random(SEED)
        for _ in range(200):
            n = rng.choice((2, 4, 6))
            m = random_skew(rng, n)
            assert pfaffian(m) ** 2 == det(m)

    def test_sub_pfaffian_counts(self):
        p = SkewPencil.built_in()
        assert len(p.sub_pfaffians(4)) == 15
        assert len(sub_pfaffians(p.matrix, 2)) == 15
        assert len(sub_pfaffians(p.matrix, 6)) == 1


class TestBinaryFormGcd:
    def test_monomial_factors(self):
        g = binary_form_gcd([q("u^2*v"), q("u*v^2")])
        assert g == q("u*v")

    def test_common_linear_factor_is_monic(self):
        g = binary_form_gcd([q("u^2 - v^2"), q("u^2 + 2*u*v + v^2")])
        assert g == q("u + v")

    def test_coprime_forms(self):
        assert binary_form_gcd([q("u"), q("v")]) == q("1")

    def test_zero_inputs(self):
        zero = Poly.zero(PENCIL_SIG)
        assert not binary_form_gcd([zero, zero])
        assert binary_form_gcd([zero, q("v^3")]) == q("v^3")

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            binary_form_gcd([q("u + 1")])


class TestRationalRoot:
    def test_smallest_root_in_divisor_order(self):
        assert _rational_projective_root(q("u^2 - u*v")) == "[0:1]"
        assert _rational_projective_root(q("u*v - v^2")) == "[1:0]"
        assert _rational_projective_root(q("4*u^2 + 4*u*v - 3*v^2")) == "[1/2:1]"
        assert _rational_projective_root(q("3*u^2 - 12*v^2")) == "[2:1]"
        assert _rational_projective_root(q("u^2 + v^2")) is None

    def test_large_constant_term(self):
        # divisors are listed up to the square root: 10^12 has 169 of them
        root = _rational_projective_root(q("u - 1000000000000*v"))
        assert root == "[1000000000000:1]"


class TestCertificate:
    def test_built_in_is_certified(self):
        cert = constant_rank_certificate(SkewPencil.built_in())
        assert cert.ok and cert.pfaffian_is_zero
        assert cert.gcd == q("1")
        assert str(cert) == "constant rank 4 certified; sub-Pfaffian gcd = 1"

    def test_zero_pencil(self):
        zero = Poly.zero(PENCIL_SIG)
        cert = constant_rank_certificate(
            SkewPencil([[zero] * 6 for _ in range(6)]))
        assert not cert.ok
        assert cert.witness == "zero pencil"
        assert not cert.gcd

    def test_rank_two_pencil_names_a_degeneration_point(self):
        cert = constant_rank_certificate(
            SkewPencil(elementary_skew(0, 1, q("u^2"))))
        assert not cert.ok and cert.pfaffian_is_zero
        assert "rank <= 2 everywhere" in cert.witness
        assert "[0:1]" in cert.witness

    def test_generically_rank_four_with_a_drop(self):
        m = add_matrices(elementary_skew(0, 1, q("u^2")),
                         elementary_skew(2, 3, q("u^2")))
        cert = constant_rank_certificate(SkewPencil(m))
        assert not cert.ok and cert.pfaffian_is_zero
        assert "rank < 4 at [0:1]" in cert.witness

    def test_rank_six_pencil(self):
        m = add_matrices(add_matrices(elementary_skew(0, 1, q("u^2")),
                                      elementary_skew(2, 3, q("u^2"))),
                         elementary_skew(4, 5, q("v^2")))
        cert = constant_rank_certificate(SkewPencil(m))
        assert not cert.ok and not cert.pfaffian_is_zero
        assert "Pfaffian nonzero" in cert.witness


class TestFlattening:
    def test_frozen_rank(self):
        assert flatten_rank() == 6
        assert rank(identity(12)) == 12

    def test_matches_interleaved_blocks(self):
        assert interleaved_flattening(SkewPencil.built_in()) == \
            flattening_matrix()

    def test_text_layout_round_trip(self):
        rows = [line.split(",") for line in BETA_TEXT.strip().splitlines()]
        assert len(rows) == 6 and all(len(r) == 6 for r in rows)
        rows = [line.split(",")
                for line in FLATTENING_TEXT.strip().splitlines()]
        assert len(rows) == 12 and all(len(r) == 12 for r in rows)


class TestQuasimonad:
    def test_frozen_structure(self):
        m = Quasimonad.built_in()
        assert m.pivots == [0, 1, 2, 4, 6, 11]
        assert m.form_determinant() == 1
        assert m.composition_is_zero()
        for i in range(6):
            for j in range(6):
                assert m.form[i][j] == -m.form[j][i]

    def test_rank_profile_of_the_two_maps(self):
        m = Quasimonad.built_in()
        e0 = (1, 0, 0, 0, 0, 0)
        assert rank(m.left_at(e0)) == 2
        assert rank(m.right_at((1, 2, 3, 4, 5, 6))) == 2
        assert len(m.minor_ideal_generators()) == 15

    def test_report_is_clean(self):
        report = quasimonad_checks(samples=8, seed=SEED)
        assert report.ok
        assert report.composition_zero
        assert report.form_determinant == 1
        assert report.left_rank_at_e0 == 2
        assert report.right_generic_rank == 2
        assert len(report.sample_ranks) == 8
        assert all(r == 2 for _, r in report.sample_ranks)

    def test_minors_locus_is_a_cubic_curve(self):
        report = minors_locus_hilbert()
        assert report.ok and report.status == "cubic"
        assert report.hilbert_values == [1, 6, 7, 10, 13, 16, 19, 22, 25]
        assert "3t+1" in report.detail

    def test_minors_locus_under_a_short_cap_is_inconclusive(self):
        report = minors_locus_hilbert(cap=3)
        assert report.status == "inconclusive"
        assert report.hilbert_values == [1, 6, 7, 10]
        assert "cap 3" in report.detail
        assert not report.ok
        assert minors_locus_hilbert(cap=8).ok


class TestSymplecticModel:
    def test_pairing_and_isotropy(self):
        e = identity(6)
        assert symplectic_product(e[0], e[3]) == 1
        assert symplectic_product(e[3], e[0]) == -1
        assert symplectic_product(e[0], e[1]) == 0
        assert is_isotropic([e[0], e[1], e[2]])
        assert not is_isotropic([e[0], e[1], e[3]])

    def test_graph_chart_coordinates(self):
        rng = random.Random(SEED + 1)
        for _ in range(200):
            s = [[Fraction(rng.randint(-4, 4)) for _ in range(3)]
                 for _ in range(3)]
            a, x, y, b = plucker_abxy(graph_plane(s))
            assert a == 1
            assert x == s
            assert y == adjugate3(s)
            assert b == det(s)

    def test_symmetric_graphs_satisfy_all_equations(self):
        rng = random.Random(SEED + 2)
        for _ in range(200):
            s = [[Fraction(0)] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    c = Fraction(rng.randint(-4, 4))
                    s[i][j] = c
                    s[j][i] = c
            plane = graph_plane(s)
            assert is_isotropic(plane)
            assert all(r == 0 for r in gw_residuals(*plucker_abxy(plane)))

    def test_non_isotropic_plane_fails_only_symmetry(self):
        e = identity(6)
        residuals = gw_residuals(*plucker_abxy([e[0], e[1], e[3]]))
        assert len(residuals) == 33
        assert all(r == 0 for r in residuals[:27])
        assert any(r != 0 for r in residuals[27:])

    def test_distinguished_points(self):
        a2, x2, y2, b2 = rank_two_point()
        assert (a2, b2) == (1, -1)
        assert all(r == 0 for r in gw_residuals(a2, x2, y2, b2))
        a1, x1, y1, b1 = rank_one_point()
        assert (a1, b1) == (0, 0)
        assert rank(y1) == 1
        assert all(r == 0 for r in gw_residuals(a1, x1, y1, b1))

    def test_model_equation_counts(self):
        model = CoordinateModel()
        assert len(model.gw_equations()) == 27
        assert len(model.incidence_generators()) == 10
        assert len(model.six_sections()) == 6

    def test_presentation_matrix_layout(self):
        m = CoordinateModel().presentation_matrix(2, [1, 2, 3, 4, 5])
        assert m == [[2, 0, 1, 2, 3, 4], [0, 2, -2, -3, -4, -5]]

    def test_hyperplane_coordinate_extraction(self):
        y = [[1, 2, 3], [2, 3, 4], [3, 4, 5]]
        assert _y_coordinates(y) == [1, 2, 3, 4, 5]
        with pytest.raises(ValueError):
            _y_coordinates([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.mark.slow
class TestCongruenceModel:
    def test_full_model_check(self):
        report = congruence_model_check()
        assert report.ok, report.failures
        assert all(flag for _, flag in report.memberships)
        assert len(report.memberships) == 6
        assert report.rank_off_section == 2
        assert report.rank_on_section == 1
        assert report.point_residuals_ok


def test_wrong_cofactor_fails_the_congruence_report(monkeypatch):
    right = CoordinateModel.section_cofactors

    def wrong(model):
        cofactors = right(model)
        cofactors[1] = [(0, Poly.variable(model.sig, "lam"))]
        return cofactors

    monkeypatch.setattr(CoordinateModel, "section_cofactors", wrong)
    report = congruence_model_check()
    assert not report.ok
    assert [flag for _, flag in report.memberships] == \
        [True, False, True, True, True, True]
    assert len(report.failures) == 1
    assert "-mu*a" in report.failures[0]
