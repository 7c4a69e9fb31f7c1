"""Chern-class series one ChowClass at a time, kept as an independent oracle.

These are the step-by-step forms of the series in `chowcalc.bundles`: every
partial sum and product here is a ChowClass, so every step is reduced to
its normal form.  `chowcalc.bundles` computes the same classes in Q[vars],
truncated above the ring's dimension, and reduces once per returned class;
on a homogeneous ideal both must give the same normal forms.
"""

from fractions import Fraction
from math import factorial

from chowcalc.bundles import BundleClass, _todd_series_coefficients


def graded_parts(x, top):
    return [x.ring.cls(x.rep.homogeneous_part(d)) for d in range(top + 1)]


def from_total(ring, rank, total):
    return BundleClass(ring, rank, graded_parts(total, ring.dim)[1:])


def total_chern(e):
    return sum(e.chern, e.ring.one())


def series_inverse(total):
    """Inverse of 1 + (positive-degree terms) in the graded quotient."""
    ring = total.ring
    parts = graded_parts(total, ring.dim)
    inv = [ring.one()]
    for d in range(1, ring.dim + 1):
        acc = ring.zero()
        for i in range(1, d + 1):
            acc = acc + parts[i] * inv[d - i]
        inv.append(-acc)
    return sum(inv, ring.zero())


def whitney_sum(e, f):
    return from_total(e.ring, e.rank + f.rank, total_chern(e) * total_chern(f))


def whitney_quotient(e, sub):
    total = total_chern(e) * series_inverse(total_chern(sub))
    return from_total(e.ring, e.rank - sub.rank, total)


def power_sums(e, top):
    """Newton power sums p_1..p_top of the Chern roots."""
    ps = []
    for k in range(1, top + 1):
        acc = ((-1) ** (k - 1)) * k * e.c(k)
        for i in range(1, k):
            acc = acc + ((-1) ** (i - 1)) * e.c(i) * ps[k - i - 1]
        ps.append(acc)
    return ps


def chern_character(e):
    ring = e.ring
    ch = ring.const(e.rank)
    for k, p in enumerate(power_sums(e, ring.dim), start=1):
        ch = ch + Fraction(1, factorial(k)) * p
    return ch


def chern_from_character(ring, ch):
    parts = graded_parts(ch, ring.dim)
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


def exp_class(x):
    ring = x.ring
    out = ring.one()
    power = ring.one()
    for k in range(1, ring.dim + 1):
        power = power * x
        out = out + Fraction(1, factorial(k)) * power
    return sum(graded_parts(out, ring.dim), ring.zero())


def todd_class(e):
    ring = e.ring
    g = _todd_series_coefficients(ring.dim)
    log_td = ring.zero()
    for k, p in enumerate(power_sums(e, ring.dim), start=1):
        log_td = log_td + g[k] * p
    return exp_class(log_td)


def grr_push_curve(ambient, genus, curve_class, point_class, sheaf_degree):
    """ch of the pushforward of a degree-`sheaf_degree` line bundle from a
    curve of class `curve_class` in A^(n-1) (no point-class case)."""
    chi_c = sheaf_degree + 1 - genus
    n = ambient.dim
    tangent = BundleClass(ambient, n,
                          [ambient.cls(c) for c in ambient.tangent_chern])
    pushed = curve_class + chi_c * point_class
    td_inv = series_inverse(todd_class(tangent))
    return sum(graded_parts(pushed * td_inv, n), ambient.zero())


def chi_of_character(ring, ch):
    """The integral of ch td(T): the whole product, then its top part."""
    tangent = BundleClass(ring, ring.dim,
                          [ring.cls(c) for c in ring.tangent_chern])
    mixed = ch * todd_class(tangent)
    return ring.integrate(ring.cls(mixed.rep.homogeneous_part(ring.dim)))


def twist(e, d):
    """e tensor the line bundle with first Chern class d, through the
    character: ch(E x L) = ch(E) exp(d), then Newton back to the c_i."""
    ring = e.ring
    return chern_from_character(ring, chern_character(e) * exp_class(d))


def dual(e):
    """The dual through the character: ch_k(E^dual) = (-1)^k ch_k(E)."""
    ring = e.ring
    parts = graded_parts(chern_character(e), ring.dim)
    return chern_from_character(
        ring, sum(((-1) ** k * p for k, p in enumerate(parts)), ring.zero()))
