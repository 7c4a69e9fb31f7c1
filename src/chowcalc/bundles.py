"""Chern-class calculus on presented Chow rings.

A BundleClass is a formal K-theory class: an integer rank plus Chern classes
c_1..c_dim.  Character and Todd series are exact (Fraction coefficients from
the x/(1 - e^-x) expansion); mixed-degree classes are ordinary ring elements
whose graded parts are read off as needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from chowcalc.rings import ChowClass, ChowRing


class BundleClass:
    """rank + (c_1, ..., c_dim) on a fixed ring."""

    __slots__ = ("ring", "rank", "chern")

    def __init__(self, ring: ChowRing, rank: int, chern):
        self.ring = ring
        self.rank = rank
        cs = [c if isinstance(c, ChowClass) else ring.cls(c) for c in chern]
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
    """Coefficients g_k with log(x / (1 - e^-x)) = sum g_k x^k, exactly."""
    # e^-x partial sums
    exp_neg = [Fraction((-1) ** k, factorial(k)) for k in range(top + 2)]
    # f = (1 - e^-x)/x  has constant term 1
    f = [-exp_neg[k + 1] for k in range(top + 1)]
    # h = 1/f
    h = [Fraction(1)] + [Fraction(0)] * top
    for k in range(1, top + 1):
        h[k] = -sum(f[i] * h[k - i] for i in range(1, k + 1))
    # g = log h = sum_{m>=1} (-1)^(m-1) (h-1)^m / m
    hm1 = h[:]
    hm1[0] = Fraction(0)
    g = [Fraction(0)] * (top + 1)
    power = [Fraction(1)] + [Fraction(0)] * top  # (h-1)^m, starting m=0
    for m in range(1, top + 1):
        nxt = [Fraction(0)] * (top + 1)
        for i in range(top + 1):
            if power[i]:
                for j in range(1, top + 1 - i):
                    nxt[i + j] += power[i] * hm1[j]
        power = nxt
        sign = Fraction((-1) ** (m - 1), m)
        for k in range(top + 1):
            g[k] += sign * power[k]
    return g


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


def hrr_chi(e: BundleClass) -> Fraction:
    """Euler characteristic by Hirzebruch-Riemann-Roch."""
    return chi_of_character(e.ring, chern_character(e))


def chi_of_character(ring: ChowRing, ch: ChowClass) -> Fraction:
    mixed = ch * todd_class(tangent_bundle(ring))
    return ring.integrate(ring.cls(mixed.rep.homogeneous_part(ring.dim)))


def grr_push_curve(ambient: ChowRing, genus: int, curve_class: ChowClass,
                   point_class: ChowClass, sheaf_degree) -> ChowClass:
    """Chern character of the pushforward of a line bundle from a curve.

    The curve sits in the ambient n-fold with class in A^(n-1); the sheaf on
    the (smooth) curve has the given degree.  A class of codimension n is
    accepted as the degenerate point case (skyscraper: character equals the
    class itself).
    """
    n = ambient.dim
    if not curve_class.is_homogeneous() or curve_class.is_zero():
        raise ValueError("curve class must be nonzero homogeneous")
    codim = curve_class.degree()
    if codim == n:
        return curve_class
    if codim != n - 1:
        raise ValueError("curve class must have codimension %d, got %d"
                         % (n - 1, codim))
    chi_c = Fraction(sheaf_degree) + 1 - genus
    pushed = curve_class + chi_c * point_class
    td_inv = _series_inverse(todd_class(tangent_bundle(ambient)))
    return sum(_graded_parts(pushed * td_inv, n), ambient.zero())
