"""Reference arithmetic for the benchmark's answer checks.

Nothing here calls chowcalc.  Polynomials live in the free graded ring on a
ring's generators: a dict from exponent tuple to Fraction.  An integral of a
top-degree free polynomial is its pairing with a table of top-degree
monomial integrals, so every answer the program gives is checked by a
multilinear expansion over that table rather than by the program's own
normal forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def monomials(weights, degree: int):
    """Exponent tuples of exact weighted degree, in a fixed order."""
    out = []

    def rec(i, remaining, acc):
        if i == len(weights):
            if remaining == 0:
                out.append(tuple(acc))
            return
        for e in range(remaining // weights[i] + 1):
            rec(i + 1, remaining - weights[i] * e, acc + [e])

    rec(0, degree, [])
    return out


def add(p, q, scale=1):
    out = dict(p)
    for m, c in q.items():
        v = out.get(m, 0) + scale * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def mul(p, q):
    """Product in the free ring."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def const(n: int, c=1):
    return {(0,) * n: Fraction(c)} if c else {}


def pair(p, table) -> Fraction:
    """Integral of a top-degree free polynomial through the monomial table."""
    return sum((c * table[m] for m, c in p.items()), Fraction(0))


def series_inverse(parts, weights, top):
    """Graded inverse of 1 + parts[1] + parts[2] + ... up to degree top."""
    n = len(weights)
    inv = [const(n)]
    for d in range(1, top + 1):
        acc = {}
        for i in range(1, d + 1):
            if i < len(parts) and parts[i]:
                acc = add(acc, mul(parts[i], inv[d - i]))
        inv.append({m: -c for m, c in acc.items()})
    return inv


def segre_parts(chern, weights, top):
    """s_0..s_top with s(E) c(E) = 1; chern = [c_1, ..., c_r]."""
    return series_inverse([None] + list(chern), weights, top)


def pushforward_parts(chern, weights, top):
    """pi_* zeta^(r-1+k), k = 0..top, for the rank-one-quotient convention.

    The bundle relation zeta^r = c_1 zeta^(r-1) - c_2 zeta^(r-2) + ...
    pushes forward to the complete symmetric functions h_k = (-1)^k s_k.
    """
    return [{m: c * (-1) ** k for m, c in s.items()}
            for k, s in enumerate(segre_parts(chern, weights, top))]


def character(rank, chern, weights, top):
    """Chern character parts ch_0..ch_top by Newton's identities."""
    n = len(weights)
    c = list(chern) + [{}] * (top + 1)
    powers = []
    for k in range(1, top + 1):
        acc = {m: v * (-1) ** (k - 1) * k for m, v in c[k - 1].items()}
        for i in range(1, k):
            acc = add(acc, mul(c[i - 1], powers[k - i - 1]),
                      (-1) ** (i - 1))
        powers.append(acc)
    parts = [const(n, rank)]
    for k, p in enumerate(powers, start=1):
        parts.append({m: v / factorial(k) for m, v in p.items()})
    return parts


def todd_projective_space(n: int):
    """Coefficients of td(P^n) = (x / (1 - e^-x))^(n+1) up to x^n."""
    # (1 - e^-x)/x = sum (-1)^k x^k / (k+1)!
    f = [Fraction((-1) ** k, factorial(k + 1)) for k in range(n + 1)]
    g = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        g[k] = -sum(f[i] * g[k - i] for i in range(1, k + 1))
    out = [Fraction(1)] + [Fraction(0)] * n
    for _ in range(n + 1):
        out = [sum(out[i] * g[k - i] for i in range(k + 1))
               for k in range(n + 1)]
    return out


def chi_projective_space(n: int, ch_coeffs, todd) -> Fraction:
    """chi of a class with character sum a_k h^k on P^n."""
    return sum((ch_coeffs[k] * todd[n - k] for k in range(n + 1)),
               Fraction(0))


def anchor_todd(n: int, todd) -> bool:
    """chi(O(d)) = C(n + d, n) for d = 0..3."""
    for d in range(4):
        ch = [Fraction(d ** k, factorial(k)) for k in range(n + 1)]
        if chi_projective_space(n, ch, todd) != comb(n + d, n):
            return False
    return True


def blowup_integral(lin, b, curve, genus) -> Fraction:
    """Integral of (pi^* L - b e)^3 on Bl_C (P1)^3.

    L = sum lin[i] alpha_i, C has tri-degree curve = (d_1, d_2, d_3) with
    alpha_i . C = d_i.  Uses alpha_1 alpha_2 alpha_3 = 1, alpha_i^2 = 0,
    pi^*D . e^2 = -(D.C), pi^*(surface) . e = 0 and
    e^3 = -(-K.C + 2g - 2) with -K = 2(alpha_1 + alpha_2 + alpha_3).
    """
    l3 = 6 * lin[0] * lin[1] * lin[2]
    lc = sum(a * d for a, d in zip(lin, curve))
    normal_deg = 2 * sum(curve) + 2 * genus - 2
    return Fraction(l3 - 3 * b * b * lc + b ** 3 * normal_deg)
