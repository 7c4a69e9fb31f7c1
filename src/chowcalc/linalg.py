"""Small dense exact linear algebra over Q: lists of lists of coefficients,
stored like Poly's (poly.coefficient: an int when integral, else a Fraction).

Row reduction (rref, and rank and inverse through it) is the sparse
elimination that builds Groebner bases, poly._echelon; det keeps its own
forward elimination for the row-swap sign and the pivot product.
"""

from __future__ import annotations

from fractions import Fraction
from operator import neg

from .poly import _echelon, coefficient, exact_div


def mat(rows):
    """Deep-copy a matrix of equal-length rows, each entry admitted by
    poly.coefficient (so no floats or bools)."""
    out = [[coefficient(x) for x in row] for row in rows]
    if any(len(row) != len(out[0]) for row in out):
        raise ValueError("matrix rows have unequal lengths")
    return out


def _square(rows, what: str):
    m = mat(rows)
    if any(len(row) != len(m) for row in m):
        raise ValueError("%s needs a square matrix" % what)
    return m


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def rref(rows):
    """Reduced row echelon form; returns (rref matrix, pivot column list).

    Rows go to poly._echelon as sparse {column: value} dicts, each pivot
    being the row's leftmost nonzero column.
    """
    m = mat(rows)
    ncols = len(m[0]) if m else 0
    echelon = _echelon([{c: x for c, x in enumerate(row) if x} for row in m],
                       neg)
    pivots = sorted(echelon)
    out = [[echelon[p].get(c, 0) for c in range(ncols)]
           for p in pivots]
    out += [[0] * ncols for _ in range(len(m) - len(pivots))]
    return out, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def det(rows) -> int | Fraction:
    m = _square(rows, "determinant")
    n = len(m)
    result = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = exact_div(m[i][c], m[c][c])
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return coefficient(result)


def inverse(rows):
    m = _square(rows, "inverse")
    n = len(m)
    aug = [row + e for row, e in zip(m, identity(n))]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]
