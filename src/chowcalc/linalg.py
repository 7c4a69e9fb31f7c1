"""Small dense exact linear algebra over Q (lists of lists of Fraction)."""

from __future__ import annotations

from fractions import Fraction

from .poly import as_fraction


def mat(rows):
    """Deep-copy a matrix, coercing entries to Fraction (floats refused)."""
    return [[x if type(x) is Fraction else as_fraction(x) for x in row]
            for row in rows]


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    assert all(len(row) == k for row in a), "inner dimensions disagree"
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            aval = a[i][t]
            if not aval:
                continue
            brow = b[t]
            orow = out[i]
            for j in range(m):
                orow[j] += aval * brow[j]
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def rref(rows):
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    m = mat(rows)
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def det(rows) -> Fraction:
    m = mat(rows)
    n = len(m)
    assert all(len(row) == n for row in m), "determinant needs a square matrix"
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        result *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return sign * result


def column_space_basis(rows):
    """Columns of the input forming a basis of its column space.

    Deterministic: keeps the leftmost independent columns (rref pivots).
    Returned as a list of column vectors.
    """
    _, pivots = rref(rows)
    cols = transpose(rows)
    return [list(map(Fraction, cols[j])) for j in pivots]


def inverse(rows):
    n = len(rows)
    aug = [list(map(Fraction, row)) + identity(n)[i] for i, row in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]
