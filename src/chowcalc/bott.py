"""Borel-Weil-Bott bookkeeping in type C3.

Weights (a1 >= a2 >= a3, integers) label irreducible homogeneous bundles on
the 6-dimensional Lagrangian Grassmannian; rho = (3,2,1).  Cohomology is
located by brute-force search over the 48-element Weyl group (signed
permutations with lengths from breadth-first search on the three simple
reflections), and dimensions come from the Weyl dimension formula over the
nine positive roots e_i - e_j, e_i + e_j, 2 e_i.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .poly import as_int

RHO = (3, 2, 1)

# group elements encoded as ((i0,s0),(i1,s1),(i2,s2)):
# (g v)[k] = s_k * v[i_k]
_IDENT = ((0, 1), (1, 1), (2, 1))
_GENS = (
    ((1, 1), (0, 1), (2, 1)),    # swap coordinates 1,2
    ((0, 1), (2, 1), (1, 1)),    # swap coordinates 2,3
    ((0, 1), (1, 1), (2, -1)),   # negate coordinate 3
)


def _apply(g, v):
    return tuple(s * v[i] for i, s in g)


def _compose(g, h):
    """(g o h) v = g(h(v))."""
    return tuple((h[i][0], s * h[i][1]) for i, s in g)


@lru_cache(maxsize=1)
def weyl_group_c3():
    """All 48 signed permutations with their Coxeter lengths."""
    lengths = {_IDENT: 0}
    frontier = [_IDENT]
    while frontier:
        nxt = []
        for g in frontier:
            for s in _GENS:
                gs = _compose(g, s)
                if gs not in lengths:
                    lengths[gs] = lengths[g] + 1
                    nxt.append(gs)
        frontier = nxt
    assert len(lengths) == 48, "W(C3) must have 48 elements"
    return dict(lengths)


def validate_weight(w):
    w = tuple(as_int(x) for x in w)
    if len(w) != 3:
        raise ValueError("a C3 weight here has exactly three entries")
    if not (w[0] >= w[1] >= w[2]):
        raise ValueError("weight entries must be weakly decreasing")
    return w


def is_acyclic(w):
    """(acyclic?, witness) for the bundle of highest weight w.

    The bundle has no cohomology exactly when w + rho has a zero entry or
    two entries sharing an absolute value.
    """
    w = validate_weight(w)
    v = tuple(x + r for x, r in zip(w, RHO))
    for i, x in enumerate(v):
        if x == 0:
            return True, "entry %d of w + rho is zero" % (i + 1)
    seen = {}
    for i, x in enumerate(v):
        if abs(x) in seen:
            return True, ("entries %d and %d of w + rho share absolute value %d"
                          % (seen[abs(x)] + 1, i + 1, abs(x)))
        seen[abs(x)] = i
    return False, "w + rho = %s is regular" % (v,)


_POSITIVE_ROOTS = [
    # encoded as coefficient vectors ce so that <v, root> = sum ce_i v_i
    (1, -1, 0), (1, 0, -1), (0, 1, -1),   # e_i - e_j
    (1, 1, 0), (1, 0, 1), (0, 1, 1),      # e_i + e_j
    (2, 0, 0), (0, 2, 0), (0, 0, 2),      # 2 e_i
]


def weyl_dim_c3(lam):
    """Dimension of the irreducible C3 representation of highest weight lam."""
    lam = validate_weight(lam)
    if lam[2] < 0:
        raise ValueError("dominant C3 weight needs lam_3 >= 0")
    num = den = 1
    for root in _POSITIVE_ROOTS:
        num *= sum(c * (l + r) for c, l, r in zip(root, lam, RHO))
        den *= sum(c * r for c, r in zip(root, RHO))
    q = Fraction(num, den)
    assert q.denominator == 1
    return int(q)


def cohomology(w):
    """(degree, dimension) of the unique nonzero cohomology, or None.

    Brute force: find the Weyl element sorting w + rho to a strictly
    decreasing positive vector; its length is the cohomological degree.
    """
    w = validate_weight(w)
    acyclic, _ = is_acyclic(w)
    if acyclic:
        return None
    v = tuple(x + r for x, r in zip(w, RHO))
    hits = []
    for g, length in weyl_group_c3().items():
        gv = _apply(g, v)
        if gv[0] > gv[1] > gv[2] > 0:
            hits.append((length, gv))
    assert len(hits) == 1, "regular weight must have a unique dominant image"
    length, gv = hits[0]
    lam = tuple(x - r for x, r in zip(gv, RHO))
    return length, weyl_dim_c3(lam)


def bott_report(w):
    """One-line human-readable summary used by the CLI."""
    w = validate_weight(w)
    acyclic, witness = is_acyclic(w)
    if acyclic:
        return "weight %s: acyclic (%s)" % (list(w), witness)
    degree, dim = cohomology(w)
    return "weight %s: H^%d has dimension %d" % (list(w), degree, dim)
