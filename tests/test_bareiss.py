"""linalg.det is one Bareiss elimination: it must equal sympy's
determinant on integer and rational matrices up to 6x6, singular ones
and ones with zero pivots included, and return it in stored form."""

from fractions import Fraction

import pytest

from chowcalc.linalg import det

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
sympy = pytest.importorskip("sympy")
given, settings = hypothesis.given, hypothesis.settings

ints = st.integers(-9, 9)
fracs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def square_matrices(draw):
    """Up to 6x6, integer or rational, with many zeros (so zero pivots and
    row swaps) and, in some, one row a combination of two others."""
    n = draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), draw(st.sampled_from((ints, fracs))))
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        a, b = draw(ints), draw(fracs)
        m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
    return m


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_det_equals_sympy(m):
    want = sympy.Matrix(m).det() if m else sympy.Integer(1)
    got = det(m)
    assert got == Fraction(int(want.p), int(want.q))
    # stored form: an int when integral, else a proper Fraction
    assert type(got) is int or got.denominator != 1


def test_zero_pivots_swap_rows_and_flip_the_sign():
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det([[0, 2, 0], [0, 0, 3], [5, 0, 0]]) == 30
    assert det([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 0
    assert det([[Fraction(1, 2), Fraction(1, 3)], [1, 1]]) == Fraction(1, 6)
