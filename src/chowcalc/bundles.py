"""Chern-class calculus on presented Chow rings.

A BundleClass is a formal K-theory class: an integer rank plus Chern classes
c_1..c_dim.  Character and Todd series are exact: the Todd class is
exp(sum g_k p_k) over the power sums p_k of the Chern roots, with
g_k = -B_k / (k k!) from the Bernoulli numbers.

The series calculus (total Chern and Segre classes, Whitney sums and
quotients, Newton's identities, exp, twists) runs in Q[vars], not in the
quotient ring.  A series is a list s[0..dim] of graded parts; nothing above
degree dim is kept and nothing is reduced.  The ideals are homogeneous, so
a normal form keeps degrees and the degree-d part of a result depends only
on parts of degree <= d: truncating at dim and reducing once at the end
gives the class that reducing every step would.  So each function makes
one normal form per class it returns (Fulton, Intersection Theory, 3.2 and
Examples 3.2.2-3.2.3).

Each graded part is held as a Poly holds its terms: integer numerators over
one positive denominator.  Every step of a recurrence is a sum of products
of earlier parts, possibly divided by an integer (the k of Newton's
identities, the d of exp's E' = x' E), and `_part` makes it on integers:
the terms are brought to the lcm of their denominators, added as ints, and
the divisor joins the denominator.  So with ch = N / D, Newton's c_k comes
out over (a divisor of) k! D^k, and the inverse of a series whose parts
are over D^d is over D^d too, with no Fraction per term.  Each class
returned is built once through `Poly(sig, num, den)`, so it is the class a
Fraction per term would give.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from operator import add

from chowcalc.poly import Poly, _nonzero, _reduced, as_int, exact_div
from chowcalc.rings import ChowClass, ChowRing


class BundleClass:
    """rank + (c_1, ..., c_dim) on a fixed ring; each c_i enters by cls."""

    __slots__ = ("ring", "rank", "chern")

    def __init__(self, ring: ChowRing, rank: int, chern):
        self.ring = ring
        self.rank = as_int(rank)
        cs = [ring.cls(c, "c_%d" % i) for i, c in enumerate(chern, start=1)]
        cs = cs[:ring.dim]
        cs += [ring.zero()] * (ring.dim - len(cs))
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
        return _class(self.ring, _chern_series(self))

    def __eq__(self, other):
        if not isinstance(other, BundleClass):
            return NotImplemented
        return (self.ring is other.ring and self.rank == other.rank
                and self.chern == other.chern)

    def __repr__(self):
        parts = ", ".join(str(c) for c in self.chern)
        return "BundleClass(rank %d; %s)" % (self.rank, parts)


# truncated series -----------------------------------------------------------


def _graded(p: Poly, top: int):
    """The series of p: its graded parts p_0..p_top, each over p's
    denominator."""
    parts = [{} for _ in range(top + 1)]
    wdeg = p.sig.wdeg
    for mono, c in p.num.items():
        d = wdeg(mono)
        if d <= top:
            parts[d][mono] = c
    return [(part, p.den) for part in parts]


def _unit(ring: ChowRing):
    return {(0,) * len(ring.sig): 1}, 1


def _chern_series(e: BundleClass):
    """c(e) = 1 + c_1 + ... + c_dim as a series."""
    return [_unit(e.ring)] + [(c.rep.num, c.rep.den) for c in e.chern]


def _part(terms, divisor: int = 1):
    """The part (sum of s a b over terms (s, a, b)) / divisor, for int s
    and parts a and b: its numerators over the lcm of the terms'
    denominators, times the divisor, in lowest terms."""
    terms = [t for t in terms if t[0] and t[1][0] and t[2][0]]
    dens = [a[1] * b[1] for _, a, b in terms]
    den = lcm(*dens)
    acc = {}
    get = acc.get
    for (s, (a, _), (b, _)), d in zip(terms, dens):
        s *= den // d
        b = b.items()
        for m1, c1 in a.items():
            c1 *= s
            for m2, c2 in b:
                m = tuple(map(add, m1, m2))
                acc[m] = get(m, 0) + c1 * c2
    return _reduced(_nonzero(acc), den * divisor)


def _product(a, b):
    """a * b for series of one length, truncated to that length."""
    return [_part([(1, a[i], b[d - i]) for i in range(d + 1)])
            for d in range(len(a))]


def _inverse(a):
    """1 / a for a series with degree-0 part 1: inv_d = -sum a_i inv_(d-i)
    over 1 <= i <= d."""
    num, den = a[0]
    if list(num.values()) != [den]:
        raise ValueError("a series is inverted only when its degree-0 part "
                         "is 1")
    inv = [({mono: 1 for mono in num}, 1)]
    for d in range(1, len(a)):
        inv.append(_part([(-1, a[i], inv[d - i]) for i in range(1, d + 1)]))
    return inv


def _exp(ring: ChowRing, x):
    """exp(x_1 + ... + x_top) (x_0 is not read), by the graded form of
    E' = x' E: d E_d = sum i x_i E_(d-i) over 1 <= i <= d."""
    out = [_unit(ring)]
    for d in range(1, len(x)):
        out.append(_part([(i, x[i], out[d - i]) for i in range(1, d + 1)], d))
    return out


def _class(ring: ChowRing, series) -> ChowClass:
    """The class of a series: its parts summed and reduced once."""
    parts = [p for p in series if p[0]]
    den = lcm(*[d for _, d in parts])
    num = {}
    for part, d in parts:
        k = den // d
        for m, c in part.items():
            num[m] = c * k
    return ring.cls(Poly(ring.sig, num, den))


def _bundle(ring: ChowRing, rank: int, series) -> BundleClass:
    """The bundle class with total Chern class `series` (degree 0 is 1)."""
    return BundleClass(ring, rank, [Poly(ring.sig, num, den)
                                    for num, den in series[1:]])


# Whitney, Segre, twists -----------------------------------------------------


def whitney_sum(e: BundleClass, f: BundleClass) -> BundleClass:
    if e.ring is not f.ring:
        raise ValueError("bundles live on different rings")
    return _bundle(e.ring, e.rank + f.rank,
                   _product(_chern_series(e), _chern_series(f)))


def whitney_quotient(e: BundleClass, sub: BundleClass) -> BundleClass:
    """The class Q with e = sub + Q, i.e. c(Q) = c(e)/c(sub)."""
    if e.ring is not sub.ring:
        raise ValueError("bundles live on different rings")
    return _bundle(e.ring, e.rank - sub.rank,
                   _product(_chern_series(e), _inverse(_chern_series(sub))))


def dual(e: BundleClass) -> BundleClass:
    return BundleClass(e.ring, e.rank,
                       [(-1) ** i * c for i, c in enumerate(e.chern, start=1)])


def _binomial(n: int, k: int) -> int:
    """C(n, k) for every integer n: the t^k coefficient of (1 + t)^n."""
    if n >= 0:
        return comb(n, k)
    return (-1) ** k * comb(k - n - 1, k)


def twist(e: BundleClass, d) -> BundleClass:
    """e tensor a line bundle with first Chern class d."""
    d = e.ring.cls(d, "twist class")
    if not d.is_zero() and (not d.is_homogeneous() or d.degree() != 1):
        raise ValueError("twist class must be a divisor class")
    # c_t(E x L) = sum_j c_j t^j (1 + d t)^(r - j) over all j (Fulton, Ex.
    # 3.2.2); with binomials of negative tops this holds for virtual classes
    # of any rank, and c_j above the rank enter too
    ring, r = e.ring, e.rank
    cs = _chern_series(e)
    powers = [cs[0]]
    for _ in range(ring.dim):
        powers.append(_part([(1, powers[-1], (d.rep.num, d.rep.den))]))
    new = [cs[0]] + [
        _part([(_binomial(r - j, i - j), cs[j], powers[i - j])
               for j in range(i + 1)])
        for i in range(1, ring.dim + 1)]
    return _bundle(ring, r, new)


def segre(e: BundleClass) -> ChowClass:
    """Total Segre class, s(E) c(E) = 1."""
    return _class(e.ring, _inverse(_chern_series(e)))


def segre_component(e: BundleClass, k: int) -> ChowClass:
    ring = e.ring
    if not 0 <= k <= ring.dim:
        return ring.zero()
    # s_k needs only c_0..c_k
    return ring.cls(Poly(ring.sig, *_inverse(_chern_series(e)[:k + 1])[k]))


def wedge2_rank3(e: BundleClass) -> BundleClass:
    """Lambda^2 of a rank-3 bundle (= E^dual tensor det E)."""
    if e.rank != 3:
        raise ValueError("wedge2_rank3 needs a rank-3 bundle")
    c1, c2, c3 = e.c(1), e.c(2), e.c(3)
    return BundleClass(e.ring, 3,
                       [2 * c1, c1 * c1 + c2, c1 * c2 - c3])


# character and Todd series --------------------------------------------------


def _power_sums(e: BundleClass):
    """Newton power sums of the Chern roots as a series (p_0 = 0):
    p_k = (-1)^(k-1) k c_k + sum (-1)^(i-1) c_i p_(k-i) over 1 <= i < k."""
    cs = _chern_series(e)
    one = cs[0]
    ps = [({}, 1)]
    for k in range(1, len(cs)):
        ps.append(_part([((-1) ** (k - 1) * k, cs[k], one)]
                        + [((-1) ** (i - 1), cs[i], ps[k - i])
                           for i in range(1, k)]))
    return ps


def chern_character(e: BundleClass) -> ChowClass:
    """ch = rank + sum p_k / k!."""
    one = _unit(e.ring)
    ch = [_part([(e.rank, one, one)])]
    ch += [(p, den * factorial(k))
           for k, (p, den) in enumerate(_power_sums(e)) if k]
    return _class(e.ring, ch)


def chern_from_character(ring: ChowRing, ch) -> BundleClass:
    """Invert the character: rank from degree 0, then Newton back to c_i."""
    ch = ring.cls(ch, "character")
    rank_c = ch.rep.constant_term()
    if rank_c.denominator != 1:
        raise ValueError("character has non-integral rank")
    # Newton: k c_k = sum (-1)^(i-1) c_(k-i) p_i over 1 <= i <= k, with the
    # power sums p_i = i! ch_i; with ch = N / D, c_k is over k! D^k
    chs = _graded(ch.rep, ring.dim)
    es = [_unit(ring)]
    for k in range(1, ring.dim + 1):
        es.append(_part([((-1) ** (i - 1) * factorial(i), es[k - i], chs[i])
                         for i in range(1, k + 1)], k))
    return _bundle(ring, int(rank_c), es)


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
    g = _todd_series_coefficients(e.ring.dim)
    one = _unit(e.ring)
    log_td = [_part([(c.numerator, p, one)], c.denominator)
              for c, p in zip(g, _power_sums(e))]
    return _class(e.ring, _exp(e.ring, log_td))


def tangent_bundle(ring: ChowRing) -> BundleClass:
    if ring.tangent_chern is None:
        raise ValueError("ring %s has no tangent data" % ring.label)
    return BundleClass(ring, ring.dim, ring.tangent_chern)


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


def chi_of_character(ring: ChowRing, ch) -> Fraction:
    """The integral of ch td(T): only its top part, the sum of ch_i
    td_(dim-i), is formed (normal forms keep degrees), and reduced once."""
    ch = ring.cls(ch, "character")
    n = ring.dim
    chs = _graded(ch.rep, n)
    tds = _graded(_tangent_todd(ring), n)
    top = _part([(1, chs[i], tds[n - i]) for i in range(n + 1)])
    return ring.integrate(Poly(ring.sig, *top))


def grr_push_curve(ambient: ChowRing, genus: int, curve_class, point_class,
                   sheaf_degree) -> ChowClass:
    """Chern character of the pushforward of a line bundle from a curve.

    The curve sits in the ambient n-fold with class in A^(n-1); the sheaf on
    the (smooth) curve has the given degree.  A class of codimension n is
    accepted as the degenerate point case (skyscraper: character equals the
    class itself).
    """
    chi_c = as_int(sheaf_degree) + 1 - as_int(genus)
    n = ambient.dim
    curve_class = ambient.cls(curve_class, "curve class")
    point_class = ambient.cls(point_class, "point class")
    if not curve_class.is_homogeneous() or curve_class.is_zero():
        raise ValueError("curve class must be nonzero homogeneous")
    codim = curve_class.degree()
    if codim == n:
        return curve_class
    if codim != n - 1:
        raise ValueError("curve class must have codimension %d, got %d"
                         % (n - 1, codim))
    pushed = curve_class.rep + chi_c * point_class.rep
    td_inv = _inverse(_graded(_tangent_todd(ambient), n))
    return _class(ambient, _product(_graded(pushed, n), td_inv))
