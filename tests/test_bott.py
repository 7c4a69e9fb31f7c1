"""Weight-by-weight cohomology bookkeeping in type C3."""

import random

import pytest

from chowcalc.bott import (bott_report, cohomology, is_acyclic,
                           validate_weight, weyl_dim_c3, weyl_group_c3)

SEED = 20260826
N_CASES = 200

ACYCLIC_SIX = [
    ((0, 0, -1), "entry 3 of w + rho is zero"),
    ((0, -1, -1), "entry 3 of w + rho is zero"),
    ((-1, -1, -1), "entry 3 of w + rho is zero"),
    ((-1, -1, -2), "entries 2 and 3 of w + rho share absolute value 1"),
    ((-1, -2, -2), "entry 2 of w + rho is zero"),
    ((-2, -2, -2), "entry 2 of w + rho is zero"),
]


def _serre_dual_weight(w):
    """Weight of the Serre-dual bundle: dual twisted by K = O(-4) on LG(3,6)."""
    return (-w[2] - 4, -w[1] - 4, -w[0] - 4)


def random_weight(rng, lo=-6, hi=6):
    return tuple(sorted((rng.randint(lo, hi) for _ in range(3)),
                        reverse=True))


class TestAcyclicity:
    @pytest.mark.parametrize("weight,witness", ACYCLIC_SIX)
    def test_six_acyclic_weights_with_witnesses(self, weight, witness):
        flag, reason = is_acyclic(weight)
        assert flag is True
        assert reason == witness
        assert cohomology(weight) is None

    def test_regular_weight_reports_shifted_vector(self):
        flag, reason = is_acyclic((1, 0, 0))
        assert flag is False
        assert "(4, 2, 1)" in reason

    def test_acyclic_and_cohomology_are_exclusive(self):
        rng = random.Random(SEED)
        for _ in range(N_CASES):
            w = random_weight(rng)
            flag, _ = is_acyclic(w)
            assert flag == (cohomology(w) is None)


class TestDimensions:
    @pytest.mark.parametrize("lam,dim", [
        ((0, 0, 0), 1),
        ((1, 0, 0), 6),
        ((1, 1, 0), 14),
        ((1, 1, 1), 14),
        ((2, 0, 0), 21),
        ((2, 1, 0), 64),
        ((2, 2, 2), 84),
    ])
    def test_weyl_dimension_anchors(self, lam, dim):
        assert weyl_dim_c3(lam) == dim

    @pytest.mark.parametrize("weight,expected", [
        ((0, 0, 0), (0, 1)),
        ((1, 0, 0), (0, 6)),
        ((1, 1, 0), (0, 14)),
        ((1, 1, 1), (0, 14)),
        ((-4, -4, -4), (6, 1)),
        ((-4, -4, -5), (6, 6)),
    ])
    def test_cohomology_anchors(self, weight, expected):
        assert cohomology(weight) == expected

    def test_dominant_weights_sit_in_degree_zero(self):
        rng = random.Random(SEED + 1)
        for _ in range(100):
            lam = random_weight(rng, 0, 5)
            degree, dim = cohomology(lam)
            assert degree == 0
            assert dim == weyl_dim_c3(lam)


class TestSerreDuality:
    def test_degrees_sum_to_six_with_equal_dimensions(self):
        rng = random.Random(SEED + 3)
        for _ in range(N_CASES):
            w = random_weight(rng)
            here = cohomology(w)
            there = cohomology(_serre_dual_weight(w))
            if here is None:
                assert there is None
                continue
            assert there is not None
            assert here[0] + there[0] == 6
            assert here[1] == there[1]


class TestWeylGroup:
    def test_length_generating_function(self):
        # Poincare polynomial of W(C3) is [2]_q [4]_q [6]_q
        poly = [1]
        for m in (2, 4, 6):
            nxt = [0] * (len(poly) + m - 1)
            for i, c in enumerate(poly):
                for j in range(m):
                    nxt[i + j] += c
            poly = nxt
        lengths = weyl_group_c3()
        counts = [0] * 10
        for length in lengths.values():
            counts[length] += 1
        assert counts == poly
        assert len(lengths) == 48
        assert max(lengths.values()) == 9

    def test_longest_element_negates_everything(self):
        lengths = weyl_group_c3()
        longest = [g for g, length in lengths.items() if length == 9]
        assert len(longest) == 1
        signs = [s for _, s in longest[0]]
        indices = [i for i, _ in longest[0]]
        assert signs == [-1, -1, -1]
        assert indices == [0, 1, 2]


class TestValidation:
    def test_weight_shape_checks(self):
        with pytest.raises(ValueError):
            validate_weight((1, 2))
        with pytest.raises(ValueError):
            validate_weight((0, 1, 0))
        assert validate_weight([2, 1, 0]) == (2, 1, 0)

    @pytest.mark.parametrize("bad", [(1.5, 0, 0), (1.0, 0, 0), (True, 0, 0),
                                     ("1", 0, 0)])
    def test_weight_entries_must_be_integers(self, bad):
        with pytest.raises(TypeError):
            validate_weight(bad)
        with pytest.raises(TypeError):
            cohomology(bad)

    def test_dimension_needs_dominant_weight(self):
        with pytest.raises(ValueError):
            weyl_dim_c3((1, 0, -1))

    def test_report_lines(self):
        assert bott_report((1, 0, 0)) == \
            "weight [1, 0, 0]: H^0 has dimension 6"
        assert bott_report((0, 0, -1)) == \
            "weight [0, 0, -1]: acyclic (entry 3 of w + rho is zero)"
