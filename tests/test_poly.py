"""Parser, arithmetic, and Groebner machinery of the polynomial core."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from chowcalc.linalg import rank
from chowcalc.poly import (GroebnerBasis, ParseError, Poly, Signature,
                           groebner_basis, monomials_of_degree, parse_poly)

XYZ = Signature.make([("x", 1), ("y", 1), ("z", 1)])
WEIGHTED = Signature.make([("h", 1), ("c", 2), ("d", 3)])
PRIMED = Signature.make([("h_2", 1), ("h_3'", 1)])


def random_poly(rng, sig, max_terms=5, max_factors=3):
    p = Poly.zero(sig)
    for _ in range(rng.randint(1, max_terms)):
        term = Poly.constant(sig, Fraction(rng.randint(-9, 9),
                                           rng.randint(1, 5)))
        for _ in range(rng.randint(0, max_factors)):
            term = term * Poly.variable(sig, rng.choice(sig.names))
        p = p + term
    return p


class TestGrammar:
    def test_basic_forms(self):
        p = parse_poly("x^2 + 2*x*y - 3/4*z", XYZ)
        assert str(p) == "x^2 + 2*x*y - 3/4*z"

    def test_primed_identifiers(self):
        p = parse_poly("h_3'^2 - 2*h_2*h_3'", PRIMED)
        assert p.degree() == 2
        # printed in descending monomial order; the text round-trips
        assert str(p) == "-2*h_2*h_3' + h_3'^2"
        assert parse_poly(str(p), PRIMED) == p

    def test_power_binds_tightest(self):
        assert parse_poly("-x^2", XYZ) == -parse_poly("x", XYZ) ** 2
        assert parse_poly("2*x^3", XYZ) == 2 * parse_poly("x", XYZ) ** 3

    def test_rational_coefficients(self):
        p = parse_poly("7/2", XYZ)
        assert p.constant_term() == Fraction(7, 2)

    def test_parenthesized_products(self):
        p = parse_poly("(x + y)*(x - y)", XYZ)
        assert p == parse_poly("x^2 - y^2", XYZ)

    @pytest.mark.parametrize("bad", ["x +", "2**x", "x^", "(x", "x!", ""])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_poly(bad, XYZ)

    def test_unknown_variable(self):
        with pytest.raises((ParseError, KeyError)):
            parse_poly("w + 1", XYZ)

    def test_round_trip_seeded(self):
        rng = random.Random(101)
        for _ in range(200):
            sig = rng.choice((XYZ, WEIGHTED, PRIMED))
            p = random_poly(rng, sig)
            assert parse_poly(str(p), sig) == p


class TestArithmetic:
    def test_ring_axioms_seeded(self):
        rng = random.Random(202)
        zero = Poly.zero(XYZ)
        for _ in range(200):
            a = random_poly(rng, XYZ)
            b = random_poly(rng, XYZ)
            c = random_poly(rng, XYZ)
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == zero
            assert Poly.one(XYZ) * a == a

    def test_evaluate_is_a_homomorphism(self):
        rng = random.Random(303)
        for _ in range(50):
            a = random_poly(rng, XYZ)
            b = random_poly(rng, XYZ)
            point = {n: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for n in XYZ.names}
            assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
            assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)

    def test_evaluate_requires_all_names(self):
        with pytest.raises(KeyError):
            parse_poly("x + y", XYZ).evaluate({"x": 1})

    def test_weighted_degree(self):
        p = parse_poly("h*c + d", WEIGHTED)
        assert p.degree() == 3
        assert p.is_homogeneous()
        assert not parse_poly("h + c", WEIGHTED).is_homogeneous()

    @pytest.mark.parametrize("bad", [0.1, 2.0, True, False])
    def test_floats_and_bools_are_refused(self, bad):
        with pytest.raises(TypeError):
            Poly(XYZ, {(1, 0, 0): bad})
        with pytest.raises(TypeError):
            Poly.constant(XYZ, bad)
        with pytest.raises(TypeError):
            parse_poly("x + y", XYZ).scale(bad)
        with pytest.raises(TypeError):
            parse_poly("x", XYZ) ** bad

    def test_coefficient_of(self):
        p = parse_poly("x^2*y + 3*x*z - y", XYZ)
        assert p.coefficient_of("x", 2) == parse_poly("y", XYZ)
        assert p.coefficient_of("x", 1) == parse_poly("3*z", XYZ)
        assert p.coefficient_of("x", 0) == parse_poly("-y", XYZ)


class TestSignature:
    @pytest.mark.parametrize("bad", [True, 1.0, 1.5, "1"])
    def test_non_integer_weights_are_refused(self, bad):
        with pytest.raises(TypeError):
            Signature(("x",), (bad,))

    def test_nonpositive_weights_are_refused(self):
        with pytest.raises(ValueError):
            Signature(("x",), (0,))

    @pytest.mark.parametrize("names, weights", [
        (("x", "y"), (1,)), (("x", "x"), (1, 1)), (("2x",), (1,))])
    def test_malformed_names_are_refused(self, names, weights):
        with pytest.raises(ValueError):
            Signature(names, weights)

    def test_a_signature_is_never_changed(self):
        sig = Signature(("x",), (1,))
        with pytest.raises(AttributeError):
            sig.names = ("y",)
        with pytest.raises(AttributeError):
            del sig.weights
        with pytest.raises(AttributeError):
            sig.extra = 1
        assert sig.names == ("x",) and sig.weights == (1,)

    def test_equality_hash_and_repr_follow_names_and_weights(self):
        a, b = Signature(("h", "c"), (1, 2)), Signature(("h", "c"), (1, 2))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != Signature(("h", "c"), (1, 3))
        assert a != Signature(("c", "h"), (2, 1))
        assert a != ("h", "c") and a != None  # noqa: E711
        assert repr(a) == "Signature(names=('h', 'c'), weights=(1, 2))"

    def test_copy_and_pickle_rebuild_an_equal_signature(self):
        copies = [copy.copy(WEIGHTED), copy.deepcopy(WEIGHTED),
                  pickle.loads(pickle.dumps(WEIGHTED))]
        assert all(type(c) is Signature and c == WEIGHTED for c in copies)


class TestOrder:
    def test_grevlex_on_equal_weights(self):
        p = parse_poly("y^2 + x*y + x^2", XYZ)
        assert str(p) == "x^2 + x*y + y^2"

    def test_weighted_tie_break(self):
        # h^2 and c share weighted degree 2; grevlex prefers h^2
        sig = Signature.make([("h", 1), ("c", 2)])
        p = parse_poly("c + h^2", sig)
        assert p.leading_monomial() == (2, 0)


class TestGroebner:
    def test_monomial_ideal_is_its_own_basis(self):
        gens = [parse_poly("x^2", XYZ), parse_poly("y^2", XYZ)]
        gb = groebner_basis(gens)
        assert sorted(str(p) for p in gb) == ["x^2", "y^2"]

    def test_coprime_leads_need_no_new_elements(self):
        gens = [parse_poly("x^2 + y*z", XYZ), parse_poly("z^3", XYZ)]
        gb = groebner_basis(gens)
        assert len(gb) == 2

    def test_known_basis(self):
        gens = [parse_poly("x^2 - y^2", XYZ), parse_poly("x*y", XYZ)]
        gb = GroebnerBasis(gens)
        # x*y^2 and y^3 are forced into the reduced basis
        assert gb.normal_form(parse_poly("y^3", XYZ)).is_zero()
        assert gb.normal_form(parse_poly("x^3", XYZ)).is_zero()
        assert not gb.normal_form(parse_poly("x^2", XYZ)).is_zero()

    def test_normal_form_properties_seeded(self):
        gb = GroebnerBasis([parse_poly("x^2 - y*z", XYZ),
                            parse_poly("x*y - z^2", XYZ)])
        rng = random.Random(505)
        for _ in range(200):
            p = random_poly(rng, XYZ)
            q = random_poly(rng, XYZ)
            n = gb.normal_form(p)
            assert gb.normal_form(n) == n
            assert gb.normal_form(p * q) == gb.normal_form(n * gb.normal_form(q))
            assert gb.normal_form(p + q) == gb.normal_form(n + gb.normal_form(q))

    def test_non_homogeneous_generator_is_refused(self):
        gens = [parse_poly("x^2 - y*z", XYZ), parse_poly("x^2 + y", XYZ)]
        with pytest.raises(ValueError):
            groebner_basis(gens)
        with pytest.raises(ValueError):
            GroebnerBasis(gens)
        # weighted homogeneity is what counts: h^2 + c has degree 2 throughout
        assert len(groebner_basis([parse_poly("h^2 + c", WEIGHTED)])) == 1

    def test_hilbert_function_against_rank_oracle(self):
        gb = GroebnerBasis([parse_poly("x^2 - y*z", XYZ),
                            parse_poly("x*y", XYZ)])
        values = gb.hilbert_function(6)
        for d in range(7):
            monos = monomials_of_degree(XYZ, d)
            # rank of the reduced images, coordinates on all degree-d monomials
            columns = sorted(monos)
            rows = []
            for m in monos:
                nf = gb.normal_form(Poly(XYZ, {m: Fraction(1)}))
                rows.append([nf.terms.get(c, Fraction(0)) for c in columns])
            assert values[d] == rank(rows)

    def test_standard_monomials_count_matches(self):
        gb = GroebnerBasis([parse_poly("x^2", XYZ), parse_poly("y^3", XYZ)])
        for d in range(6):
            assert len(gb.standard_monomials(d)) == gb.hilbert_function(d)[d]
