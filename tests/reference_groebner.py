"""Textbook Buchberger, kept as an independent oracle for the graded kernel.

It shares only the S-polynomial and the division algorithm with the
program; `chowcalc.poly.groebner_basis` computes the same reduced basis
by per-degree linear algebra instead.
"""

from chowcalc.poly import (grevlex_key, mono_divides, mono_lcm, mono_mul,
                           reduce_poly, s_polynomial)


def buchberger(generators):
    """Reduced Groebner basis, monic, sorted by ascending leading monomial."""
    basis = [g.monic() for g in generators if not g.is_zero()]
    if not basis:
        return []
    sig = basis[0].sig

    def lcm_key(pair):
        lcm = mono_lcm(*(basis[k].leading_monomial() for k in pair))
        return grevlex_key(sig, lcm)

    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    while pairs:
        pair = min(pairs, key=lcm_key)  # normal selection strategy
        pairs.discard(pair)
        f, g = (basis[k] for k in pair)
        lf, lg = f.leading_monomial(), g.leading_monomial()
        if mono_lcm(lf, lg) == mono_mul(lf, lg):
            continue  # coprime leads: the S-polynomial reduces to zero
        s = reduce_poly(s_polynomial(f, g), basis)
        if s:
            basis.append(s.monic())
            pairs.update((k, len(basis) - 1) for k in range(len(basis) - 1))

    leads = [g.leading_monomial() for g in basis]
    minimal = [g for i, g in enumerate(basis)
               if not any(mono_divides(lk, leads[i])
                          and (lk != leads[i] or k < i)
                          for k, lk in enumerate(leads) if k != i)]
    reduced = [reduce_poly(g, [h for h in minimal if h is not g]).monic()
               for g in minimal]
    return sorted(reduced, key=lambda p: grevlex_key(sig, p.leading_monomial()))
