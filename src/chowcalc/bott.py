"""Borel-Weil-Bott bookkeeping in type C3.

Weights (a1 >= a2 >= a3, integers) label irreducible homogeneous bundles on
the 6-dimensional Lagrangian Grassmannian; rho = (3,2,1).  By Bott's
theorem a regular w + rho has cohomology in one degree only: the number of
the nine positive roots e_i - e_j, e_i + e_j, 2 e_i on which w + rho pairs
negatively.  Its dimension is the Weyl dimension formula at the dominant
weight |w + rho| (entries sorted decreasingly) - rho.
"""

from __future__ import annotations

from .poly import as_int, exact_div

RHO = (3, 2, 1)


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
    return as_int(exact_div(num, den))


def cohomology(w):
    """(degree, dimension) of the unique nonzero cohomology, or None.

    For regular v = w + rho the degree is the number of positive roots on
    which v pairs negatively (the length of the Weyl element making v
    dominant), and that dominant image is |v| sorted decreasingly.
    """
    w = validate_weight(w)
    acyclic, _ = is_acyclic(w)
    if acyclic:
        return None
    v = tuple(x + r for x, r in zip(w, RHO))
    degree = sum(1 for root in _POSITIVE_ROOTS
                 if sum(c * x for c, x in zip(root, v)) < 0)
    dominant = sorted((abs(x) for x in v), reverse=True)
    return degree, weyl_dim_c3([x - r for x, r in zip(dominant, RHO)])


def bott_report(w):
    """One-line human-readable summary used by the CLI."""
    w = validate_weight(w)
    acyclic, witness = is_acyclic(w)
    if acyclic:
        return "weight %s: acyclic (%s)" % (list(w), witness)
    degree, dim = cohomology(w)
    return "weight %s: H^%d has dimension %d" % (list(w), degree, dim)
