"""Textbook division and Buchberger, kept as independent oracles.

Nothing here calls the program's division, S-polynomial or monomial order:
`divide` is the textbook division algorithm written over plain term dicts,
`buchberger` runs on it, and both read the weighted grevlex order from
`grevlex` below.  `chowcalc.poly.reduce_poly` and `groebner_basis` compute
the same remainders and reduced bases their own ways.
"""

from fractions import Fraction

from chowcalc.poly import Poly


def grevlex(sig, mono):
    """Weighted degree first, then the smaller last differing exponent wins."""
    degree = sum(w * e for w, e in zip(sig.weights, mono))
    return (degree, [-e for e in reversed(mono)])


def lead(sig, terms):
    """Largest monomial of a nonempty term dict."""
    return max(terms, key=lambda m: grevlex(sig, m))


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def divide(p, divisors):
    """Remainder of p on division by the divisors (Cox-Little-O'Shea 2.3).

    Repeatedly take the largest remaining term of p: the first divisor whose
    lead divides it cancels it, and if none does, it moves to the remainder.
    """
    sig = p.sig
    divs = [(lead(sig, d.terms), d.terms) for d in divisors if d.terms]
    work, remainder = dict(p.terms), {}
    while work:
        m = lead(sig, work)
        c = work.pop(m)
        for lm, terms in divs:
            if divides(lm, m):
                factor = Fraction(c) / terms[lm]
                shift = [x - y for x, y in zip(m, lm)]
                for t, ct in terms.items():
                    if t != lm:
                        key = tuple(x + y for x, y in zip(t, shift))
                        v = work.get(key, Fraction(0)) - factor * ct
                        if v:
                            work[key] = v
                        else:
                            work.pop(key, None)
                break
        else:
            remainder[m] = c
    return Poly(sig, remainder)


def monic(p):
    c = p.terms[lead(p.sig, p.terms)]
    return Poly(p.sig, {m: Fraction(v) / c for m, v in p.terms.items()})


def s_polynomial(f, g):
    """lcm/LT(f) * f - lcm/LT(g) * g, written over term dicts."""
    sig = f.sig
    lf, lg = lead(sig, f.terms), lead(sig, g.terms)
    lcm = tuple(max(x, y) for x, y in zip(lf, lg))
    out = {}
    for terms, lm, sign in ((f.terms, lf, 1), (g.terms, lg, -1)):
        factor = Fraction(sign) / terms[lm]
        shift = [x - y for x, y in zip(lcm, lm)]
        for t, c in terms.items():
            key = tuple(x + y for x, y in zip(t, shift))
            out[key] = out.get(key, Fraction(0)) + factor * c
    return Poly(sig, out)


def buchberger(generators):
    """Reduced Groebner basis, monic, sorted by ascending leading monomial."""
    basis = [monic(g) for g in generators if g.terms]
    if not basis:
        return []
    sig = basis[0].sig
    leads = [lead(sig, g.terms) for g in basis]

    def lcm_key(pair):
        i, j = pair
        return grevlex(sig, tuple(max(x, y) for x, y in zip(leads[i], leads[j])))

    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    while pairs:
        pair = min(pairs, key=lcm_key)  # normal selection strategy
        pairs.discard(pair)
        i, j = pair
        if not any(x and y for x, y in zip(leads[i], leads[j])):
            continue  # coprime leads: the S-polynomial reduces to zero
        s = divide(s_polynomial(basis[i], basis[j]), basis)
        if s:
            basis.append(monic(s))
            leads.append(lead(sig, s.terms))
            pairs.update((k, len(basis) - 1) for k in range(len(basis) - 1))

    minimal = [g for i, g in enumerate(basis)
               if not any(divides(lk, leads[i]) and (lk != leads[i] or k < i)
                          for k, lk in enumerate(leads) if k != i)]
    reduced = [monic(divide(g, [h for h in minimal if h is not g]))
               for g in minimal]
    return sorted(reduced, key=lambda p: grevlex(sig, lead(sig, p.terms)))
