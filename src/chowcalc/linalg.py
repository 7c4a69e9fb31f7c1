"""Small dense exact linear algebra over Q: lists of lists of coefficients,
stored like Poly's (poly.coefficient: an int when integral, else a Fraction).

Each row is first scaled to integers by the lcm of its denominators, so
every step of elimination stays in ints.  Row reduction (rref, and rank
and inverse through it) is the sparse fraction-free elimination that
builds Groebner bases, poly._echelon, with one exact_div per entry of the
result.  det is one fraction-free Bareiss elimination (Math. Comp. 22,
1968).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import neg

from .poly import _cleared, _echelon, coefficient, exact_div


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

    Rows go to poly._echelon as sparse {column: integer} dicts, each pivot
    being the row's leftmost nonzero column.
    """
    m = mat(rows)
    ncols = len(m[0]) if m else 0
    echelon = _echelon([_cleared(dict(enumerate(row)))[0] for row in m], neg)
    pivots = sorted(echelon)
    out = [[exact_div(echelon[p].get(c, 0), echelon[p][p])
            for c in range(ncols)] for p in pivots]
    out += [[0] * ncols for _ in range(len(m) - len(pivots))]
    return out, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def det(rows) -> int | Fraction:
    """The determinant, by Bareiss elimination: each row is first scaled
    to integers by the lcm of its denominators, and each step's division
    by the previous pivot is exact in the integers (Sylvester's identity),
    so no Fraction is made until one exact_div by the scales at the end.
    A zero pivot swaps in a later row, flipping the sign."""
    m = _square(rows, "determinant")
    scale = 1
    for i, row in enumerate(m):
        k = lcm(*(x.denominator for x in row if type(x) is Fraction))
        if k != 1:
            m[i] = [(x * k).numerator for x in row]
            scale *= k
    n = len(m)
    sign, previous = 1, 1
    for c in range(n - 1):
        if not m[c][c]:
            pivot = next((i for i in range(c + 1, n) if m[i][c]), None)
            if pivot is None:
                return 0
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        top = m[c]
        p = top[c]
        for i in range(c + 1, n):
            row = m[i]
            f = row[c]
            m[i] = row[:c + 1] + [(p * x - f * y) // previous for x, y in
                                  zip(row[c + 1:], top[c + 1:])]
        previous = p
    return exact_div(sign * m[-1][-1] if n else 1, scale)


def inverse(rows):
    m = _square(rows, "inverse")
    n = len(m)
    aug = [row + e for row, e in zip(m, identity(n))]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]
