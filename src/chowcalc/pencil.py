"""Skew pencils of forms, Pfaffian certificates, and the line-congruence model.

The module ships two pieces of built-in data as canonical text, re-parsed at
import time: a 6x6 antisymmetric matrix of binary quadratics ("the pencil")
and its 12x12 scalar flattening.  On top of these it provides

  * exact Pfaffians over any commutative coefficient ring,
  * a constant-rank-4 certificate for pencils (Pfaffian vanishing plus a
    gcd computation on the fifteen 4x4 sub-Pfaffians),
  * the three-term complex built from the column space of the flattening
    (composition test, rank probes, and the minors locus of the right map),
  * a coordinate model for isotropic 3-spaces of a symplectic 6-space,
    with the incidence ideal of a pencil of conic-centered projections
    and the 2x6 presentation matrix derived from it.

The functions here measure: the reports of `quasimonad_checks` and
`congruence_model_check` hold ranks, determinants and membership flags,
and the checks in `checks.py` compare them with the expected values and
decide PASS or FAIL.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .linalg import det, identity, inverse, mat, rank, rref, transpose
from .poly import (GroebnerBasis, Poly, Signature, coefficient, exact_div,
                   parse_poly)

PENCIL_SIG = Signature.make((("u", 1), ("v", 1)))
POINT_SIG = Signature.make(tuple(("z%d" % i, 1) for i in range(6)))

# Built-in data, kept as text in the source layout and parsed below.
BETA_TEXT = """\
0, u^2, 2*u*v, v^2, 0, 0
-u^2, 0, 0, 0, 0, 0
-2*u*v, 0, 0, 0, 0, u^2
-v^2, 0, 0, 0, 0, 2*u*v
0, 0, 0, 0, 0, v^2
0, 0, -u^2, -2*u*v, -v^2, 0
"""

FLATTENING_TEXT = """\
0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0
0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0
-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0
-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1
0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0
0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1
0, 0, 0, 0, -1, 0, 0, -1, 0, 0, 0, 0
0, 0, 0, 0, 0, 0, -1, 0, 0, -1, 0, 0
"""


def _parse_rows(text: str):
    return [[cell.strip() for cell in line.split(",")]
            for line in text.strip().splitlines()]


def beta_matrix() -> List[List[Poly]]:
    """The built-in 6x6 pencil, entries parsed into (u, v) quadratics."""
    return [[parse_poly(cell, PENCIL_SIG) for cell in row]
            for row in _parse_rows(BETA_TEXT)]


def flattening_matrix() -> List[List[int]]:
    """The built-in 12x12 scalar matrix, row layout as in the source text."""
    return [[int(cell) for cell in row]
            for row in _parse_rows(FLATTENING_TEXT)]


def _check_skew(m) -> None:
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i, n):
            if m[i][j] + m[j][i] != 0:
                raise ValueError("matrix is not antisymmetric at (%d, %d)"
                                 % (i, j))


def pfaffian(m):
    """Pfaffian of an antisymmetric matrix, by expansion along the first row.

    Works over any commutative coefficient type supporting +, -, *
    (rational entries or Poly entries).  Raises on odd size or on a
    matrix that is not antisymmetric.
    """
    _check_skew(m)
    if len(m) % 2 != 0:
        raise ValueError("Pfaffian requires even size, got %d" % len(m))
    return _pf(m)


def _pf(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 2:
        return m[0][1]
    acc = None
    for j in range(1, n):
        if m[0][j] == 0:
            continue
        keep = [k for k in range(1, n) if k != j]
        sub = [[m[r][c] for c in keep] for r in keep]
        term = m[0][j] * _pf(sub)
        if j % 2 == 0:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        return m[0][0] * 0  # typed zero
    return acc


def sub_pfaffians(m, size: int = 4):
    """Pfaffians of all principal size x size submatrices, in index order."""
    n = len(m)
    out = []
    for rows in itertools.combinations(range(n), size):
        sub = [[m[r][c] for c in rows] for r in rows]
        out.append(_pf(sub))
    return out


def _evaluate(matrix, values):
    """A matrix of Polys evaluated at a point given in signature order."""
    vals = dict(zip(matrix[0][0].sig.names, values, strict=True))
    return [[e.evaluate(vals) for e in row] for row in matrix]


class SkewPencil:
    """An antisymmetric matrix of binary quadratics in (u, v)."""

    def __init__(self, matrix: Sequence[Sequence[Poly]]):
        m = [list(row) for row in matrix]
        _check_skew(m)
        for row in m:
            for entry in row:
                if entry.sig != PENCIL_SIG:
                    raise ValueError("entries must live in the (u, v) ring")
                if entry and not (entry.is_homogeneous()
                                  and entry.degree() == 2):
                    raise ValueError("entries must be quadratics or zero")
        self.matrix = m

    @classmethod
    def built_in(cls) -> "SkewPencil":
        return cls(beta_matrix())

    def pfaffian(self) -> Poly:
        return pfaffian(self.matrix)

    def sub_pfaffians(self, size: int = 4):
        return sub_pfaffians(self.matrix, size)

    def rank_at(self, u, v) -> int:
        return rank(_evaluate(self.matrix, (u, v)))


# Binary-form gcd.  A nonzero homogeneous f in (u, v) factors as
# u^a * v^b * (core homogenized), with the core a univariate polynomial
# having nonzero constant and leading coefficients; gcds multiply over
# the three parts.

def _form_parts(p: Poly):
    d = p.degree()
    coeffs = {}
    for mono, c in p.terms.items():
        eu, ev = mono
        coeffs[eu] = c
    lo = min(coeffs)
    hi = max(coeffs)
    core = [coeffs.get(e, 0) for e in range(lo, hi + 1)]
    return lo, d - hi, core


def _upoly_mod(a, b):
    a = list(a)
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        q = exact_div(a[-1], b[-1])
        off = len(a) - len(b)
        for i in range(len(b)):
            a[off + i] -= q * b[i]
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _upoly_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _upoly_mod(a, b)
    if a:
        lead = a[-1]
        a = [exact_div(c, lead) for c in a]
    return a


def binary_form_gcd(forms: Sequence[Poly]) -> Poly:
    """Monic gcd in Q[u, v] of homogeneous binary forms (zeros ignored)."""
    nonzero = [f for f in forms if f]
    if not nonzero:
        return Poly.zero(PENCIL_SIG)
    mu = mv = None
    core_gcd = None
    for f in nonzero:
        if not f.is_homogeneous():
            raise ValueError("binary_form_gcd expects homogeneous forms")
        a, b, core = _form_parts(f)
        mu = a if mu is None else min(mu, a)
        mv = b if mv is None else min(mv, b)
        core_gcd = core if core_gcd is None else _upoly_gcd(core_gcd, core)
    terms = {}
    k = len(core_gcd) - 1
    for j, c in enumerate(core_gcd):
        if c:
            terms[(mu + j, mv + (k - j))] = c
    return Poly(PENCIL_SIG, terms)


def _rational_projective_root(g: Poly) -> Optional[str]:
    """A rational point of the zero locus of a nonconstant binary form."""
    lo, ml, core = _form_parts(g)
    if lo > 0:
        return "[0:1]"
    if ml > 0:
        return "[1:0]"
    # rational root search on the dehomogenized core g(t, 1)
    from math import gcd as igcd, isqrt
    denom = 1
    for c in core:
        denom = denom * c.denominator // igcd(denom, c.denominator)
    ints = [int(c * denom) for c in core]
    lead, const = ints[-1], ints[0]

    def divisors(n):
        # ascending; pairs d <= isqrt(n) with n // d, so O(sqrt n) steps
        n = abs(n)
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        large = [n // d for d in reversed(small) if d * d != n]
        return small + large or [1]

    for p in divisors(const):
        for q in divisors(lead):
            for s in (1, -1):
                t = Fraction(s * p, q)
                if g.evaluate({"u": t, "v": 1}) == 0:
                    return "[%s:1]" % t
    return None


@dataclass
class CertificateResult:
    ok: bool
    pfaffian_is_zero: bool
    gcd: Poly
    witness: Optional[str] = None

    def __str__(self):
        if self.ok:
            return "constant rank 4 certified; sub-Pfaffian gcd = %s" % self.gcd
        return "certificate failed: %s" % self.witness


def constant_rank_certificate(pencil: SkewPencil) -> CertificateResult:
    """Certify that a 6x6 pencil has rank exactly 4 at every [u:v].

    Rank < 6 everywhere is the identical vanishing of the Pfaffian; rank >= 4
    everywhere is the absence of a common projective root of the fifteen
    4x4 principal sub-Pfaffians, i.e. a constant nonzero gcd.
    """
    pf = pencil.pfaffian()
    g = binary_form_gcd(pencil.sub_pfaffians(4))
    if pf:
        for u, v in ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1)):
            if pf.evaluate({"u": u, "v": v}) != 0:
                return CertificateResult(
                    False, False, g,
                    "Pfaffian nonzero, e.g. rank 6 at [%d:%d]" % (u, v))
        return CertificateResult(False, False, g,
                                 "Pfaffian is a nonzero form: %s" % pf)
    if not g:
        # rank <= 2 at every point; locate the deepest degeneration via
        # the gcd of the matrix entries themselves
        entry_gcd = binary_form_gcd([e for row in pencil.matrix for e in row])
        msg = "all 4x4 sub-Pfaffians vanish identically (rank <= 2 everywhere)"
        if entry_gcd and entry_gcd.degree() > 0:
            root = _rational_projective_root(entry_gcd)
            where = root if root else "a root of %s" % entry_gcd
            msg += "; entry gcd %s vanishes at %s" % (entry_gcd, where)
        elif not entry_gcd:
            msg = "zero pencil"
        return CertificateResult(False, True, g, msg)
    if g.degree() == 0:
        return CertificateResult(True, True, g, None)
    root = _rational_projective_root(g)
    where = root if root else "a root of %s" % g
    return CertificateResult(
        False, True, g,
        "sub-Pfaffians share the factor %s; rank < 4 at %s" % (g, where))


def flatten_rank() -> int:
    """Rank of the built-in 12x12 flattening (exact elimination)."""
    return rank(flattening_matrix())


# ---------------------------------------------------------------------------
# The three-term complex attached to the flattening.
#
# The 12 coordinates interleave a 2-dimensional space L and a 6-dimensional
# space V as index 2*i + s  <->  l_s (x) v_i; with this reading the 12x12
# matrix is the block flattening of the pencil (beta as a bivector), which
# the dev checks below confirm by recomputing it from the pencil itself.


def _blocks_from_pencil(p: SkewPencil):
    origin = {"u": 0, "v": 0}
    b00 = [[e.coefficient_of("u", 2).evaluate(origin) for e in row]
           for row in p.matrix]
    b11 = [[e.coefficient_of("v", 2).evaluate(origin) for e in row]
           for row in p.matrix]
    mixed = [[e.coefficient_of("u", 1).coefficient_of("v", 1).evaluate(origin)
              for e in row] for row in p.matrix]
    b01 = [[exact_div(c, 2) for c in row] for row in mixed]
    return b00, b01, b11


def interleaved_flattening(p: SkewPencil):
    """12x12 scalar matrix M[2i+s][2j+t] = (B_st)_ij for the pencil blocks."""
    b00, b01, b11 = _blocks_from_pencil(p)
    blocks = {(0, 0): b00, (0, 1): b01, (1, 0): b01, (1, 1): b11}
    m = [[0] * 12 for _ in range(12)]
    for i in range(6):
        for j in range(6):
            for s in range(2):
                for t in range(2):
                    m[2 * i + s][2 * j + t] = blocks[(s, t)][i][j]
    return m


@dataclass
class Quasimonad:
    """Column space of the flattening with its induced alternating form.

    The basis consists of the leftmost independent columns; since basis
    vector p is the image of the coordinate functional at pivot column
    c_p, the induced form on the image is the principal submatrix of the
    flattening on the pivot indices.
    """

    pivots: List[int]
    form: List[List[int]]
    right: List[List[Poly]]
    left: List[List[Poly]]

    @classmethod
    def built_in(cls) -> "Quasimonad":
        m = flattening_matrix()
        _, pivots = rref(m)
        cols = transpose(m)
        basis = [cols[c] for c in pivots]
        form = [[m[p][q] for q in pivots] for p in pivots]
        z = [Poly.variable(POINT_SIG, "z%d" % i) for i in range(6)]
        right = [[sum((w[2 * i + k] * z[i] for i in range(6)),
                      Poly.zero(POINT_SIG))
                  for w in basis] for k in range(2)]
        form_inv = inverse(form)
        eps = [[0, 1], [-1, 0]]
        # left = form^-1 . right^T . eps, a 6x2 matrix of linear forms
        rt = [[right[k][j] for k in range(2)] for j in range(6)]
        rte = [[sum((row[k] * eps[k][c] for k in range(2)),
                    Poly.zero(POINT_SIG)) for c in range(2)] for row in rt]
        left = [[sum((form_inv[j][p] * rte[p][c] for p in range(6)),
                     Poly.zero(POINT_SIG)) for c in range(2)]
                for j in range(6)]
        return cls(list(pivots), form, right, left)

    def form_determinant(self) -> int | Fraction:
        return det(self.form)

    def composition(self) -> List[List[Poly]]:
        """The 2x2 matrix of quadrics right(z) . left(z)."""
        return [[sum((self.right[k][j] * self.left[j][c] for j in range(6)),
                     Poly.zero(POINT_SIG)) for c in range(2)]
                for k in range(2)]

    def composition_is_zero(self) -> bool:
        return all(not e for row in self.composition() for e in row)

    def right_at(self, z: Sequence):
        return _evaluate(self.right, z)

    def left_at(self, z: Sequence):
        return _evaluate(self.left, z)

    def minor_ideal_generators(self) -> List[Poly]:
        """The fifteen 2x2 minors of the right map, quadrics in z0..z5."""
        out = []
        for j, jj in itertools.combinations(range(6), 2):
            out.append(self.right[0][j] * self.right[1][jj]
                       - self.right[0][jj] * self.right[1][j])
        return out


SAMPLES = 8  # seeded points at which quasimonad_checks probes both maps


@dataclass
class QuasimonadReport:
    composition_zero: bool
    form_determinant: int | Fraction
    left_rank_at_e0: int
    right_generic_rank: int  # the largest right-map rank over the samples
    sample_ranks: List[Tuple[Tuple[int, ...], int]]  # (point, left rank)


def quasimonad_checks(seed: int) -> QuasimonadReport:
    q = Quasimonad.built_in()
    rng = random.Random(seed)
    sample_ranks = []
    generic_right = 0
    for _ in range(SAMPLES):
        z = tuple(rng.randint(-9, 9) for _ in range(6))
        if all(c == 0 for c in z):
            z = (1,) + z[1:]
        sample_ranks.append((z, rank(q.left_at(z))))
        generic_right = max(generic_right, rank(q.right_at(z)))
    return QuasimonadReport(q.composition_is_zero(), q.form_determinant(),
                            rank(q.left_at((1, 0, 0, 0, 0, 0))),
                            generic_right, sample_ranks)


@dataclass
class MinorsLocusReport:
    status: str  # "cubic", "inconclusive", or "mismatch"
    hilbert_values: List[int]
    detail: str = ""

    @property
    def ok(self) -> bool:
        # an inconclusive run decided nothing, so it is not a pass
        return self.status == "cubic"


def minors_locus_hilbert(cap: int = 8) -> MinorsLocusReport:
    """Hilbert function of the rank <= 1 locus of the right map.

    The generators are not saturated, so only the tail of the Hilbert
    function is compared against 3t + 1 (a degree-3 curve with constant
    term 1); at least four consecutive agreeing values are required.
    """
    gens = Quasimonad.built_in().minor_ideal_generators()
    values = GroebnerBasis(gens).hilbert_function(cap)
    tail = 0
    for t in range(cap, 0, -1):
        if values[t] == 3 * t + 1:
            tail += 1
        else:
            break
    if tail >= 4:
        return MinorsLocusReport("cubic", values,
                                 "tail agrees with 3t+1 from t=%d" % (cap - tail + 1))
    if tail > 0:
        return MinorsLocusReport("inconclusive", values,
                                 "tail too short under degree cap %d" % cap)
    return MinorsLocusReport("mismatch", values,
                             "Hilbert values do not reach 3t+1")


# ---------------------------------------------------------------------------
# Coordinate model: 3-spaces of a symplectic 6-space, in (a, X, Y, b)
# coordinates for the decomposition into two transverse isotropic 3-spaces.
# In the incidence ideal the symmetric X is encoded with six variables (x5
# sits in the middle slot); the tangent hyperplane identifies Y's middle
# slot with y2, turning Y into a Hankel matrix in y0..y4.

CONGRUENCE_SIG = Signature.make(
    (("lam", 1), ("mu", 1), ("a", 1))
    + tuple(("x%d" % i, 1) for i in range(6))
    + tuple(("y%d" % i, 1) for i in range(5)))


def _sym3(sig: Signature, stem: str):
    v = [Poly.variable(sig, "%s%d" % (stem, i)) for i in range(6)]
    return [[v[0], v[1], v[2]], [v[1], v[5], v[3]], [v[2], v[3], v[4]]]


def _hankel3(sig: Signature, stem: str):
    v = [Poly.variable(sig, "%s%d" % (stem, i)) for i in range(5)]
    return [[v[0], v[1], v[2]], [v[1], v[2], v[3]], [v[2], v[3], v[4]]]


def _mat3_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def adjugate3(m):
    """Adjugate of a 3x3 matrix over any commutative coefficient type."""
    def cof(i, j):
        r = [k for k in range(3) if k != i]
        c = [k for k in range(3) if k != j]
        minor = m[r[0]][c[0]] * m[r[1]][c[1]] - m[r[0]][c[1]] * m[r[1]][c[0]]
        return minor if (i + j) % 2 == 0 else -minor
    return [[cof(j, i) for j in range(3)] for i in range(3)]


def symplectic_product(u, w) -> int | Fraction:
    """The standard form pairing slot i with slot 3+i."""
    u, w = mat([u, w])
    return coefficient(sum(u[i] * w[3 + i] - u[3 + i] * w[i]
                           for i in range(3)))


def is_isotropic(vectors: Sequence[Sequence]) -> bool:
    return all(symplectic_product(u, w) == 0
               for u, w in itertools.combinations(vectors, 2))


def plucker_abxy(vectors: Sequence[Sequence]):
    """(a, X, Y, b) coordinates of the 3-space spanned by three 6-vectors.

    a and b are the wedge coordinates on the two distinguished 3-spaces
    (slots 0..2 and 3..5); X and Y are the mixed blocks.  On the graph
    of a map S (columns of [I; S]) this returns (1, S, adj S, det S).
    """
    m = transpose(mat(vectors))

    def p(i, j, k):
        return det([m[i], m[j], m[k]])

    a = p(0, 1, 2)
    b = p(3, 4, 5)
    x = [[p(1, 2, 3 + i), -p(0, 2, 3 + i), p(0, 1, 3 + i)] for i in range(3)]
    comp = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
    y = [[(-1) ** j * p(i, 3 + comp[j][0], 3 + comp[j][1]) for j in range(3)]
         for i in range(3)]
    return a, x, y, b


def gw_residuals(a, x, y, b):
    """Residuals of the decomposable + isotropic equations at (a, X, Y, b).

    Zero iff the point lies on the isotropic Grassmannian: the quadratic
    equations adj X = aY, adj Y = bX, YX = ab I, and the linear symmetry
    of X and Y.
    """
    a, b = coefficient(a), coefficient(b)
    x, y = mat(x), mat(y)
    out = []
    ax = adjugate3(x)
    ay = adjugate3(y)
    yx = _mat3_mul(y, x)
    for i in range(3):
        for j in range(3):
            out.append(ax[i][j] - a * y[i][j])
            out.append(ay[i][j] - b * x[i][j])
            out.append(yx[i][j] - (a * b if i == j else 0))
    for i in range(3):
        for j in range(i + 1, 3):
            out.append(x[i][j] - x[j][i])
            out.append(y[i][j] - y[j][i])
    return out


def graph_plane(s):
    """Columns of [I; S] for a 3x3 matrix S, as three 6-vectors."""
    return mat([[1 if r == j else 0 for r in range(3)]
                + [s[i][j] for i in range(3)] for j in range(3)])


def incidence_generators() -> List[Poly]:
    """Bidegree (*, 1) equations of the incidence of the conic pencil."""
    sig = CONGRUENCE_SIG
    lam = Poly.variable(sig, "lam")
    mu = Poly.variable(sig, "mu")
    a = Poly.variable(sig, "a")
    x = _sym3(sig, "x")
    y = _hankel3(sig, "y")
    conic = [lam * lam, lam * mu, mu * mu]
    gens = [a]
    for i in range(3):
        gens.append(sum((x[i][j] * conic[j] for j in range(3)),
                        Poly.zero(sig)))
    rows = [[-mu, lam, Poly.zero(sig)], [Poly.zero(sig), -mu, lam]]
    for k in range(2):
        for j in range(3):
            gens.append(sum((rows[k][i] * y[i][j] for i in range(3)),
                            Poly.zero(sig)))
    return gens


def six_sections() -> List[Poly]:
    sig = CONGRUENCE_SIG
    lam = Poly.variable(sig, "lam")
    mu = Poly.variable(sig, "mu")
    a = Poly.variable(sig, "a")
    y = [Poly.variable(sig, "y%d" % i) for i in range(5)]
    return [-a * lam, -a * mu,
            lam * y[1] - mu * y[0], lam * y[2] - mu * y[1],
            lam * y[3] - mu * y[2], lam * y[4] - mu * y[3]]


def section_cofactors() -> List[List[Tuple[int, Poly]]]:
    """Per section, (generator index, cofactor) pairs summing to it."""
    lam = Poly.variable(CONGRUENCE_SIG, "lam")
    mu = Poly.variable(CONGRUENCE_SIG, "mu")
    one = Poly.one(CONGRUENCE_SIG)
    return [[(0, -lam)], [(0, -mu)],
            [(4, one)], [(5, one)], [(6, one)], [(9, one)]]


def presentation_matrix(a, yvals):
    """The 2x6 matrix with rows (a,0,y0..y3) and (0,a,-y1..-y4)."""
    a = coefficient(a)
    y = [coefficient(c) for c in yvals]
    return [[a, 0, y[0], y[1], y[2], y[3]],
            [0, a, -y[1], -y[2], -y[3], -y[4]]]


def _y_coordinates(y):
    """Read (y0..y4) off a symmetric matrix lying on the y5 = y2 hyperplane."""
    if y[1][1] != y[0][2]:
        raise ValueError("point is off the y5 = y2 hyperplane")
    return [y[0][0], y[0][1], y[0][2], y[1][2], y[2][2]]


def rank_two_point():
    """(a, X, Y, b) for an isotropic graph plane with nonzero a."""
    s = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    return plucker_abxy(graph_plane(s))


def rank_one_point():
    """(a, X, Y, b) for the plane spanned by the conic point at [1:0]
    and the two distinguished directions orthogonal to it."""
    e = identity(6)
    return plucker_abxy([e[0], e[4], e[5]])


@dataclass
class CongruenceReport:
    memberships: List[Tuple[str, bool]]
    rank_off_section: Optional[int]  # None unless the point has a != 0
    rank_on_section: Optional[int]   # None unless the point has a = 0
    point_residuals_ok: bool


def congruence_model_check() -> CongruenceReport:
    gens = incidence_generators()
    memberships = [
        (str(s), s == sum((q * gens[k] for k, q in cofactors),
                          Poly.zero(CONGRUENCE_SIG)))
        for s, cofactors in zip(six_sections(), section_cofactors(),
                                strict=True)]
    off, on = rank_two_point(), rank_one_point()
    residuals_ok = all(r == 0 for pt in (off, on) for r in gw_residuals(*pt))
    a2, _, y2, _ = off
    a1, _, y1, _ = on
    rank_off = (rank(presentation_matrix(a2, _y_coordinates(y2)))
                if a2 != 0 else None)
    rank_on = (rank(presentation_matrix(a1, _y_coordinates(y1)))
               if a1 == 0 else None)
    return CongruenceReport(memberships, rank_off, rank_on, residuals_ok)
