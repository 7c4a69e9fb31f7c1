"""Small dense exact linear algebra over Q (lists of lists of Fraction).

Row reduction (rref, and rank and inverse through it) is the sparse
elimination that builds Groebner bases, poly._echelon; det keeps its own
forward elimination for the row-swap sign and the pivot product.
"""

from __future__ import annotations

from fractions import Fraction
from operator import neg

from .poly import _echelon, as_fraction


def mat(rows):
    """Deep-copy a matrix of equal-length rows into Fractions (no floats)."""
    out = [[x if type(x) is Fraction else as_fraction(x) for x in row]
           for row in rows]
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
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


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
    out = [[echelon[p].get(c, Fraction(0)) for c in range(ncols)]
           for p in pivots]
    out += [[Fraction(0)] * ncols for _ in range(len(m) - len(pivots))]
    return out, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def det(rows) -> Fraction:
    m = _square(rows, "determinant")
    n = len(m)
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


def inverse(rows):
    m = _square(rows, "inverse")
    n = len(m)
    aug = [row + e for row, e in zip(m, identity(n))]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]
