"""Chern-class calculus on presented Chow rings.

A BundleClass is a formal K-theory class: an integer rank plus Chern classes
c_1..c_dim.  Character and Todd series are exact: the Todd class is
exp(sum g_k p_k) over the power sums p_k of the Chern roots, with
g_k = -B_k / (k k!) from the Bernoulli numbers.  Mixed-degree classes are
ordinary ring elements whose graded parts are read off as needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from chowcalc.poly import as_int, exact_div
from chowcalc.rings import ChowClass, ChowRing


class BundleClass:
    """rank + (c_1, ..., c_dim) on a fixed ring."""

    __slots__ = ("ring", "rank", "chern")

    def __init__(self, ring: ChowRing, rank: int, chern):
        self.ring = ring
        self.rank = as_int(rank)
        cs = [c if isinstance(c, ChowClass) else ring.cls(c) for c in chern]
        if any(c.ring is not ring for c in cs):
            raise ValueError("a Chern class lives on a different ring")
        if len(cs) > ring.dim:
            cs = cs[:ring.dim]
        while len(cs) < ring.dim:
            cs.append(ring.zero())
        for i, c in enumerate(cs, start=1):
            if not c.is_zero() and (not c.is_homogeneous()
                                    or c.degree() != i):
                raise ValueError("c_%d has the wrong degree" % i)
        self.chern = cs

    @classmethod
    def trivial(cls, ring: ChowRing, rank: int) -> "BundleClass":
        return cls(ring, rank, [])

    @classmethod
    def line(cls, ring: ChowRing, c1: ChowClass) -> "BundleClass":
        return cls(ring, 1, [c1])

    def c(self, i: int) -> ChowClass:
        if i == 0:
            return self.ring.one()
        if 1 <= i <= len(self.chern):
            return self.chern[i - 1]
        return self.ring.zero()

    def total_chern(self) -> ChowClass:
        return sum(self.chern, self.ring.one())

    def __eq__(self, other):
        if not isinstance(other, BundleClass):
            return NotImplemented
        return (self.ring is other.ring and self.rank == other.rank
                and self.chern == other.chern)

    def __repr__(self):
        parts = ", ".join(str(c) for c in self.chern)
        return "BundleClass(rank %d; %s)" % (self.rank, parts)


def _graded_parts(x: ChowClass, top: int):
    return [x.ring.cls(x.rep.homogeneous_part(d)) for d in range(top + 1)]


def _from_total(ring: ChowRing, rank: int, total: ChowClass) -> BundleClass:
    parts = _graded_parts(total, ring.dim)
    return BundleClass(ring, rank, parts[1:])


def _series_inverse(total: ChowClass) -> ChowClass:
    """Inverse of 1 + (positive-degree terms) in the graded quotient."""
    ring = total.ring
    parts = _graded_parts(total, ring.dim)
    inv = [ring.one()]
    for d in range(1, ring.dim + 1):
        acc = ring.zero()
        for i in range(1, d + 1):
            acc = acc + parts[i] * inv[d - i]
        inv.append(-acc)
    return sum(inv, ring.zero())


def whitney_sum(e: BundleClass, f: BundleClass) -> BundleClass:
    if e.ring is not f.ring:
        raise ValueError("bundles live on different rings")
    return _from_total(e.ring, e.rank + f.rank,
                       e.total_chern() * f.total_chern())


def whitney_quotient(e: BundleClass, sub: BundleClass) -> BundleClass:
    """The class Q with e = sub + Q, i.e. c(Q) = c(e)/c(sub)."""
    if e.ring is not sub.ring:
        raise ValueError("bundles live on different rings")
    total = e.total_chern() * _series_inverse(sub.total_chern())
    return _from_total(e.ring, e.rank - sub.rank, total)


def dual(e: BundleClass) -> BundleClass:
    return BundleClass(e.ring, e.rank,
                       [(-1) ** i * c for i, c in enumerate(e.chern, start=1)])


def twist(e: BundleClass, d: ChowClass) -> BundleClass:
    """e tensor a line bundle with first Chern class d."""
    if d.ring is not e.ring:
        raise ValueError("twist class lives on a different ring")
    if not d.is_zero() and (not d.is_homogeneous() or d.degree() != 1):
        raise ValueError("twist class must be a divisor class")
    # the rank-weighted binomial only consumes c_0..c_r; formal components
    # above the rank (series-division artifacts) do not enter
    r = e.rank
    new = []
    for i in range(1, e.ring.dim + 1):
        acc = e.ring.zero()
        for j in range(0, min(i, r) + 1):
            acc = acc + comb(r - j, i - j) * e.c(j) * d ** (i - j)
        new.append(acc)
    return BundleClass(e.ring, r, new)


def segre(e: BundleClass) -> ChowClass:
    """Total Segre class, s(E) c(E) = 1."""
    return _series_inverse(e.total_chern())


def segre_component(e: BundleClass, k: int) -> ChowClass:
    return e.ring.cls(segre(e).rep.homogeneous_part(k))


def wedge2_rank3(e: BundleClass) -> BundleClass:
    """Lambda^2 of a rank-3 bundle (= E^dual tensor det E)."""
    if e.rank != 3:
        raise ValueError("wedge2_rank3 needs a rank-3 bundle")
    c1, c2, c3 = e.c(1), e.c(2), e.c(3)
    return BundleClass(e.ring, 3,
                       [2 * c1, c1 * c1 + c2, c1 * c2 - c3])


# character and Todd series --------------------------------------------------


def _power_sums(e: BundleClass, top: int):
    """Newton power sums p_1..p_top of the Chern roots."""
    ps = []
    for k in range(1, top + 1):
        acc = ((-1) ** (k - 1)) * k * e.c(k)
        for i in range(1, k):
            acc = acc + ((-1) ** (i - 1)) * e.c(i) * ps[k - i - 1]
        ps.append(acc)
    return ps


def chern_character(e: BundleClass) -> ChowClass:
    ring = e.ring
    ch = ring.const(e.rank)
    for k, p in enumerate(_power_sums(e, ring.dim), start=1):
        ch = ch + Fraction(1, factorial(k)) * p
    return ch


def chern_from_character(ring: ChowRing, ch: ChowClass) -> BundleClass:
    """Invert the character: rank from degree 0, then Newton back to c_i."""
    parts = _graded_parts(ch, ring.dim)
    rank_c = parts[0].rep.constant_term()
    if rank_c.denominator != 1:
        raise ValueError("character has non-integral rank")
    ps = [factorial(k) * parts[k] for k in range(1, ring.dim + 1)]
    es = []
    for k in range(1, ring.dim + 1):
        acc = ((-1) ** (k - 1)) * ps[k - 1]
        for i in range(1, k):
            acc = acc + ((-1) ** (i - 1)) * es[k - i - 1] * ps[i - 1]
        es.append(Fraction(1, k) * acc)
    return BundleClass(ring, int(rank_c), es)


def _todd_series_coefficients(top: int):
    """Coefficients g_k with log(x / (1 - e^-x)) = sum g_k x^k, exactly.

    Hirzebruch's closed form g_k = -B_k / (k k!) for k >= 1, with the
    Bernoulli numbers from sum_{j<=m} C(m+1, j) B_j = 0, B_0 = 1.
    """
    bernoulli = [1]
    for m in range(1, top + 1):
        total = sum(comb(m + 1, j) * b for j, b in enumerate(bernoulli))
        bernoulli.append(exact_div(-total, m + 1))
    return [0] + [exact_div(-bernoulli[k], k * factorial(k))
                  for k in range(1, top + 1)]


def todd_class(e: BundleClass) -> ChowClass:
    """Todd class via td = exp(sum g_k p_k)."""
    ring = e.ring
    g = _todd_series_coefficients(ring.dim)
    log_td = ring.zero()
    for k, p in enumerate(_power_sums(e, ring.dim), start=1):
        log_td = log_td + g[k] * p
    return _exp_class(log_td)


def _exp_class(x: ChowClass) -> ChowClass:
    ring = x.ring
    out = ring.one()
    power = ring.one()
    for k in range(1, ring.dim + 1):
        power = power * x
        out = out + Fraction(1, factorial(k)) * power
    # graded truncation keeps later products small
    return sum(_graded_parts(out, ring.dim), ring.zero())


def tangent_bundle(ring: ChowRing) -> BundleClass:
    if ring.tangent_chern is None:
        raise ValueError("ring %s has no tangent data" % ring.label)
    return BundleClass(ring, ring.dim,
                       [ring.cls(c) for c in ring.tangent_chern])


def _tangent_todd(ring: ChowRing):
    """td(T) of the ring as a normal-form Poly, built once per ring.

    It is kept on the ring itself, so it goes when the ring goes; a Poly
    rather than a ChowClass, which would point back at the ring.
    """
    if ring.todd is None:
        ring.todd = todd_class(tangent_bundle(ring)).rep
    return ring.todd


def hrr_chi(e: BundleClass) -> Fraction:
    """Euler characteristic by Hirzebruch-Riemann-Roch."""
    return chi_of_character(e.ring, chern_character(e))


def chi_of_character(ring: ChowRing, ch: ChowClass) -> Fraction:
    # normal forms keep degrees, so the top part may be taken before one
    mixed = ch.rep * _tangent_todd(ring)
    return ring.integrate(ring.cls(mixed.homogeneous_part(ring.dim)))


def grr_push_curve(ambient: ChowRing, genus: int, curve_class: ChowClass,
                   point_class: ChowClass, sheaf_degree) -> ChowClass:
    """Chern character of the pushforward of a line bundle from a curve.

    The curve sits in the ambient n-fold with class in A^(n-1); the sheaf on
    the (smooth) curve has the given degree.  A class of codimension n is
    accepted as the degenerate point case (skyscraper: character equals the
    class itself).
    """
    chi_c = as_int(sheaf_degree) + 1 - as_int(genus)
    n = ambient.dim
    if not curve_class.is_homogeneous() or curve_class.is_zero():
        raise ValueError("curve class must be nonzero homogeneous")
    codim = curve_class.degree()
    if codim == n:
        return curve_class
    if codim != n - 1:
        raise ValueError("curve class must have codimension %d, got %d"
                         % (n - 1, codim))
    pushed = curve_class + chi_c * point_class
    td_inv = _series_inverse(ambient.cls(_tangent_todd(ambient)))
    return sum(_graded_parts(pushed * td_inv, n), ambient.zero())
