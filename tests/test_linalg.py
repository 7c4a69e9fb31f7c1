"""Exact dense linear algebra over Fraction."""

import random
from fractions import Fraction

import pytest

from chowcalc.linalg import (column_space_basis, det, identity, inverse,
                             mat, mat_mul, rank, rref, transpose)


def random_matrix(rng, n, m):
    return [[Fraction(rng.randint(-6, 6)) for _ in range(m)]
            for _ in range(n)]


def test_rank_of_constructed_outer_products():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 6)
        k = rng.randint(0, n)
        m = [[Fraction(0)] * n for _ in range(n)]
        vectors = []
        # k independent rank-1 layers on distinct leading coordinates
        for layer in range(k):
            u = [Fraction(0)] * layer + [Fraction(1)] + \
                [Fraction(rng.randint(-3, 3)) for _ in range(n - layer - 1)]
            v = [Fraction(0)] * layer + [Fraction(1)] + \
                [Fraction(rng.randint(-3, 3)) for _ in range(n - layer - 1)]
            vectors.append((u, v))
        for u, v in vectors:
            for i in range(n):
                for j in range(n):
                    m[i][j] += u[i] * v[j]
        assert rank(m) == k


def test_det_triangular_and_multiplicative():
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(1, 5)
        t = [[Fraction(0)] * n for _ in range(n)]
        prod = Fraction(1)
        for i in range(n):
            t[i][i] = Fraction(rng.randint(1, 5))
            prod *= t[i][i]
            for j in range(i + 1, n):
                t[i][j] = Fraction(rng.randint(-4, 4))
        assert det(t) == prod
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        assert det(mat_mul(a, b)) == det(a) * det(b)


def test_inverse_round_trip():
    rng = random.Random(13)
    built = 0
    while built < 60:
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        if det(a) == 0:
            continue
        built += 1
        assert mat_mul(a, inverse(a)) == identity(n)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_mat_refuses_floats_and_bools():
    assert mat([[1, Fraction(1, 2)], ["3/4", 0]]) == \
        [[Fraction(1), Fraction(1, 2)], [Fraction(3, 4), Fraction(0)]]
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            mat([[1, bad]])
        with pytest.raises(TypeError):
            rank([[bad, 0], [0, 1]])


def test_rref_pivots_are_strictly_increasing():
    rng = random.Random(14)
    for _ in range(100):
        a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        reduced, pivots = rref(a)
        assert list(pivots) == sorted(set(pivots))
        for row, col in enumerate(pivots):
            assert reduced[row][col] == 1


def test_column_space_basis_spans_and_prefers_leftmost():
    a = [[Fraction(1), Fraction(2), Fraction(0)],
         [Fraction(2), Fraction(4), Fraction(1)]]
    basis = column_space_basis(a)
    # column 2 is twice column 1, so the basis is columns 0 and 2
    cols = transpose(a)
    assert basis == [cols[0], cols[2]]
    assert rank(basis) == rank(a)
