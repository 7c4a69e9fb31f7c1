"""Polynomials as plain term dicts {monomial: Fraction}, kept as an oracle.

Nothing here calls `chowcalc.poly`: each function takes and returns dicts
with no zero coefficient, one Fraction per term, and does its arithmetic
term by term.  `chowcalc.poly.Poly` keeps integer numerators over one
denominator instead, so both must agree on every operation.
"""

from fractions import Fraction

from reference_groebner import divides, lead


def clean(terms):
    """The nonzero terms, each coefficient a Fraction."""
    return {m: Fraction(c) for m, c in terms.items() if c}


def add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return clean(out)


def neg(a):
    return {m: -c for m, c in a.items()}


def mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return clean(out)


def power(a, n, one):
    out = {one: Fraction(1)}
    for _ in range(n):
        out = mul(out, a)
    return out


def scale(a, c):
    return clean({m: v * c for m, v in a.items()})


def evaluate(a, point):
    """a at the point, given as one value per variable, in order."""
    total = Fraction(0)
    for m, c in a.items():
        for v, e in zip(point, m):
            c *= Fraction(v) ** e
        total += c
    return total


def remainder(sig, a, divisors):
    """Textbook division of a by the divisors (term dicts): the largest
    remaining term is cancelled by the first divisor whose lead divides
    it, or else moves to the remainder."""
    divs = [(lead(sig, d), d) for d in divisors if d]
    work, out = dict(a), {}
    while work:
        m = lead(sig, work)
        c = work.pop(m)
        for lm, d in divs:
            if divides(lm, m):
                shift = [x - y for x, y in zip(m, lm)]
                term = {tuple(x + y for x, y in zip(t, shift)): ct
                        for t, ct in d.items() if t != lm}
                work = add(work, scale(term, -c / d[lm]))
                break
        else:
            out[m] = c
    return out
