"""SL2 representation arithmetic and exact-sequence dimension ledgers."""

import random

import pytest

from chowcalc.sl2 import SL2Rep, euler_solve, monomial_section_count

SEED = 20260826
N_CASES = 200


class TestClebschGordan:
    def test_small_tensor_products(self):
        def s(n):
            return SL2Rep([n])
        assert s(1) * s(1) == SL2Rep([0, 2])
        assert s(2) * s(3) == SL2Rep([1, 3, 5])
        assert s(0) * s(7) == s(7)
        assert s(4) * s(4) == SL2Rep([0, 2, 4, 6, 8])

    def test_dimension_is_multiplicative(self):
        rng = random.Random(SEED)
        for _ in range(N_CASES):
            a = SL2Rep([rng.randint(0, 6) for _ in range(rng.randint(1, 3))])
            b = SL2Rep([rng.randint(0, 6) for _ in range(rng.randint(1, 3))])
            assert (a * b).dim() == a.dim() * b.dim()

    def test_tensor_is_commutative(self):
        rng = random.Random(SEED + 1)
        for _ in range(N_CASES):
            a = SL2Rep([rng.randint(0, 5) for _ in range(rng.randint(1, 3))])
            b = SL2Rep([rng.randint(0, 5) for _ in range(rng.randint(1, 3))])
            assert a * b == b * a

    def test_sum_and_multiplicity(self):
        rep = SL2Rep([2, 2, 4]) + SL2Rep([0])
        assert rep.parts == (0, 2, 2, 4)
        assert rep.dim() == 12

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SL2Rep([-1])

    @pytest.mark.parametrize("bad", [2.7, 2.0, True])
    def test_non_integer_weight_rejected(self, bad):
        with pytest.raises(TypeError):
            SL2Rep([bad])

    def test_zero_rep(self):
        zero = SL2Rep()
        assert zero.dim() == 0
        assert (zero * SL2Rep([3])).dim() == 0
        assert repr(zero) == "SL2Rep(0)"


class TestEulerSolve:
    def test_solves_single_unknown(self):
        # 1 - 10 + 9 - x = 0 => x = 0
        assert euler_solve([1, SL2Rep((0, 2, 2, 4)), SL2Rep((2, 2, 4)),
                            None]) == 0
        assert euler_solve([None, SL2Rep([1]), SL2Rep([0])]) == 1
        assert euler_solve([3, None, 5]) == 8

    def test_verifies_balanced_ledger(self):
        assert euler_solve([SL2Rep([1]), SL2Rep([0, 0])]) == 0

    def test_unbalanced_ledger_rejected(self):
        with pytest.raises(ValueError):
            euler_solve([SL2Rep([1]), SL2Rep([0])])

    def test_two_unknowns_rejected(self):
        with pytest.raises(ValueError):
            euler_solve([None, SL2Rep([0]), None])

    def test_negative_solution_rejected(self):
        with pytest.raises(ValueError):
            euler_solve([None, 0, 5])
        with pytest.raises(ValueError):
            euler_solve([-2, None])

    def test_alternating_signs_by_position(self):
        rng = random.Random(SEED + 2)
        for _ in range(100):
            dims = [rng.randint(0, 9) for _ in range(rng.randint(2, 6))]
            total = sum((-1) ** i * d for i, d in enumerate(dims))
            slot = rng.randrange(len(dims))
            solved = dims[:]
            solved[slot] = None
            # the unknown must restore the alternating sum to zero
            expected = -((-1) ** slot) * (total - (-1) ** slot * dims[slot])
            if expected < 0:
                with pytest.raises(ValueError):
                    euler_solve(solved)
            else:
                assert euler_solve(solved) == expected


class TestSectionCounts:
    def test_product_rule(self):
        assert monomial_section_count((1, 1, 1, 1)) == 16
        assert monomial_section_count((0, 0, 0)) == 1
        assert monomial_section_count((3, 2)) == 12

    def test_negative_degree_has_no_sections(self):
        assert monomial_section_count((1, -1, 1)) == 0

    def test_restriction_to_divisor(self):
        assert monomial_section_count((1, 1, 1, 1), (1, 1, 1, 1)) == 15
        assert monomial_section_count((2, 2), (1, 1)) == 5
        # divisor class exceeding the degree restricts nothing away
        assert monomial_section_count((1, 1), (2, 0)) == 4

    def test_divisor_length_mismatch(self):
        with pytest.raises(ValueError):
            monomial_section_count((1, 1, 1), (1, 1))

    @pytest.mark.parametrize("bad", [1.9, 1.0, True])
    def test_non_integer_degrees_rejected(self, bad):
        with pytest.raises(TypeError):
            monomial_section_count((bad, 1))
        with pytest.raises(TypeError):
            monomial_section_count((1, 1), (bad, 0))

    def test_restriction_matches_direct_count(self):
        rng = random.Random(SEED + 3)
        for _ in range(100):
            k = rng.randint(1, 4)
            ds = [rng.randint(0, 3) for _ in range(k)]
            es = [rng.randint(0, 2) for _ in range(k)]
            full = monomial_section_count(ds)
            kernel = 1
            ok = all(d >= e for d, e in zip(ds, es))
            for d, e in zip(ds, es):
                kernel *= d - e + 1
            expected = full - kernel if ok else full
            assert monomial_section_count(ds, es) == expected
