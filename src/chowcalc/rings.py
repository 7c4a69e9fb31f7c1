"""Presented Chow rings with exact integration.

A ring is a graded quotient Q[vars]/I, held through the reduced Groebner
basis of I, with a dimension and a top-degree functional `top` that maps
standard monomials of degree `dim` to their integrals (absent monomials
integrate to 0).  Integrating a class is one dot product of `top` with its
normal form.  Each constructor builds `top` once: from a normalization
(tau, n) for presented rings, whose top piece must be one standard
monomial; as the product of the factors' maps in product_ring; as
zeta^(r-1) m -> integral over the base of m in projective_bundle, in the
rank-one-quotient convention zeta^r - c1 zeta^(r-1) + ... + (-1)^r c_r = 0;
from the exceptional-divisor rules in blowup_threefold_along_curve; and as
m -> integral over P1^4 of m (alpha_1 + ... + alpha_4) for the
hyperplane-section model FB.

Presented rings compute their reduced basis degree by degree
(poly.groebner_basis).  Derived rings compute none: they lift the reduced
bases of their factors or base, and a bundle adds its tautological
relation, whose lead zeta^r is coprime to every base lead.  One embedding,
_lift, moves a Poly into a derived ring's variables: the base's (or a
factor's) variables sit at a fixed offset in the new signature, and the
exponent tuples are padded with zeros on both sides (pushforward drops
them again).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from chowcalc.poly import (
    GroebnerBasis,
    Poly,
    Signature,
    as_int,
    grevlex_key,
    monomials_of_degree,
    parse_poly,
)


class ChowClass:
    """An element of a ChowRing, stored in normal form."""

    __slots__ = ("ring", "rep")

    def __init__(self, ring: "ChowRing", rep: Poly):
        self.ring = ring
        self.rep = ring.gb.normal_form(rep) if ring.gb is not None else rep

    def _coerce(self, other):
        if isinstance(other, ChowClass):
            if other.ring is not self.ring:
                raise ValueError("classes live on different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return ChowClass(self.ring, Poly.constant(self.ring.sig, other))
        if isinstance(other, Poly):
            return ChowClass(self.ring, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ChowClass(self.ring, self.rep + other.rep)

    __radd__ = __add__

    def __neg__(self):
        return ChowClass(self.ring, -self.rep)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ChowClass(self.ring, self.rep - other.rep)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ChowClass(self.ring, self.rep * other.rep)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = as_int(n)
        if n < 0:
            raise ValueError("negative power of a Chow class")
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = self._coerce(other)
        if not isinstance(other, ChowClass):
            return NotImplemented
        return self.ring is other.ring and self.rep == other.rep

    def __hash__(self):
        return hash((id(self.ring), self.rep))

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def degree(self) -> int:
        return self.rep.degree()

    def is_homogeneous(self) -> bool:
        return self.rep.is_homogeneous()

    def integrate(self) -> Fraction:
        return self.ring.integrate(self)

    def __str__(self):
        return str(self.rep)

    def __repr__(self):
        return "ChowClass(%s | %s)" % (self.ring.label, self.rep)


class ChowRing:
    """A presented ring and its top-degree functional, as described above.

    A projective bundle also passes `base` and `chern`, the base Polys
    c_1..c_r (zeros included): its `rank` is len(chern) and its bundle
    variable `zeta` is sig.names[0], where projective_bundle puts it.
    """

    def __init__(self, label, sig, relations, dim, *,
                 top=None, tau=None, n=None, base=None, chern=None,
                 tangent_chern=None, gb=None):
        self.label = label
        self.sig = sig
        self.relations = list(relations)
        self.dim = dim
        self.tau = tau
        self.n = Fraction(n) if n is not None else None
        self.base = base
        self.chern = chern
        self.rank = len(chern) if chern is not None else None
        self.zeta = sig.names[0] if chern is not None else None
        self.tangent_chern = tangent_chern  # list of Polys c_1..c_dim or None
        if gb is not None:
            self.gb = gb
        elif self.relations:
            self.gb = GroebnerBasis(self.relations)
        else:
            self.gb = None
        if top is None and tau is not None:
            t = self.normal_form(tau)
            if len(t.terms) != 1 \
                    or self.standard_monomials(dim) != [t.leading_monomial()]:
                raise ValueError("top graded piece of %s is not visibly "
                                 "one-dimensional" % label)
            mono, coeff = t.leading_term()
            top = {mono: self.n / coeff}
        self.top = top  # top-degree standard monomial -> integral

    # element constructors -------------------------------------------------

    def parse(self, text: str) -> ChowClass:
        return ChowClass(self, parse_poly(text, self.sig))

    def var(self, name: str) -> ChowClass:
        return ChowClass(self, Poly.variable(self.sig, name))

    def const(self, c) -> ChowClass:
        return ChowClass(self, Poly.constant(self.sig, c))

    def zero(self) -> ChowClass:
        return ChowClass(self, Poly.zero(self.sig))

    def one(self) -> ChowClass:
        return self.const(1)

    def cls(self, poly: Poly) -> ChowClass:
        return ChowClass(self, poly)

    # structure ------------------------------------------------------------

    def normal_form(self, p: Poly) -> Poly:
        return self.gb.normal_form(p) if self.gb is not None else p

    def standard_monomials(self, degree: int):
        if self.gb is None:
            return monomials_of_degree(self.sig, degree)
        return self.gb.standard_monomials(degree)

    def hilbert_function(self):
        return [len(self.standard_monomials(d)) for d in range(self.dim + 1)]

    # integration ----------------------------------------------------------

    def integrate(self, x: ChowClass) -> Fraction:
        if not isinstance(x, ChowClass) or x.ring is not self:
            raise ValueError("can only integrate classes of this ring")
        if not x.is_homogeneous():
            raise ValueError("cannot integrate an inhomogeneous class")
        if x.degree() != self.dim:
            return Fraction(0)
        if self.top is None:
            raise ValueError("ring %s has no integration rule" % self.label)
        return sum((c * self.top.get(m, 0) for m, c in x.rep.terms.items()),
                   Fraction(0))

    def pushforward(self, x: ChowClass) -> ChowClass:
        """pi_* to the base of a bundle ring (zeta-degree r-1 coefficient)."""
        if self.rank is None:
            raise ValueError("pushforward needs a projective-bundle ring")
        if x.ring is not self:
            raise ValueError("class does not live on this ring")
        terms = {m[1:]: c for m, c in x.rep.terms.items()
                 if m[0] == self.rank - 1}
        return ChowClass(self.base, Poly(self.base.sig, terms))

    def pullback(self, x: ChowClass) -> ChowClass:
        """pi^* from the base of a bundle ring (inject base variables)."""
        if self.rank is None:
            raise ValueError("pullback needs a projective-bundle ring")
        if x.ring is not self.base:
            raise ValueError("class does not live on the base")
        return ChowClass(self, _lift(x.rep, self.sig, 1))

    def __repr__(self):
        return "ChowRing(%s, dim %d)" % (self.label, self.dim)


# constructors ---------------------------------------------------------------


def projective_space(n: int, var: str = "h") -> ChowRing:
    sig = Signature.make([(var, 1)])
    h = Poly.variable(sig, var)
    tangent = [Poly.constant(sig, comb(n + 1, i)) * h ** i
               for i in range(1, n + 1)]
    return ChowRing("P%d" % n if var == "h" else "P%d[%s]" % (n, var),
                    sig, [h ** (n + 1)], n,
                    tau=h ** n, n=1, tangent_chern=tangent)


def product_p1(k: int) -> ChowRing:
    sig = Signature.make([("alpha_%d" % i, 1) for i in range(1, k + 1)])
    alphas = [Poly.variable(sig, "alpha_%d" % i) for i in range(1, k + 1)]
    rels = [a * a for a in alphas]
    tau = Poly.one(sig)
    for a in alphas:
        tau = tau * a
    ct = Poly.one(sig)
    for a in alphas:
        ct = ct * (Poly.one(sig) + 2 * a)
    tangent = [ct.homogeneous_part(i) for i in range(1, k + 1)]
    return ChowRing("P1^%d" % k, sig, rels, k,
                    tau=tau, n=1, tangent_chern=tangent)


def _lift(p: Poly, sig: Signature, offset: int) -> Poly:
    """p with its variables placed at sig's positions offset, offset + 1, ..."""
    left = (0,) * offset
    right = (0,) * (len(sig) - offset - len(p.sig))
    return Poly(sig, {left + m + right: c for m, c in p.terms.items()})


def _lifted(ring: ChowRing, sig: Signature, offset: int):
    """The ring's relations and reduced basis, each lifted by _lift."""
    return ([_lift(r, sig, offset) for r in ring.relations],
            [_lift(g, sig, offset) for g in ring.gb or ()])


def _lifted_gb(sig: Signature, elements):
    """Wrap an already reduced basis, sorted by ascending leading monomial."""
    if not elements:
        return None
    elements = sorted(elements,
                      key=lambda p: grevlex_key(sig, p.leading_monomial()))
    return GroebnerBasis(elements, precomputed=True)


def product_ring(a: ChowRing, b: ChowRing) -> ChowRing:
    if a.tau is None or b.tau is None:
        raise ValueError("product_ring needs two directly-normalized rings")
    clash = set(a.sig.names) & set(b.sig.names)
    if clash:
        raise ValueError("variable name clash: %s" % ", ".join(sorted(clash)))
    sig = Signature(a.sig.names + b.sig.names, a.sig.weights + b.sig.weights)
    off = len(a.sig)
    rels_a, gb_a = _lifted(a, sig, 0)
    rels_b, gb_b = _lifted(b, sig, off)
    # disjoint variables: the union of the two reduced bases is itself reduced
    gb = _lifted_gb(sig, gb_a + gb_b)
    top = {ma + mb: va * vb
           for ma, va in a.top.items() for mb, vb in b.top.items()}
    tangent = None
    if a.tangent_chern is not None and b.tangent_chern is not None:
        ca = Poly.one(sig)
        for t in a.tangent_chern:
            ca = ca + _lift(t, sig, 0)
        cb = Poly.one(sig)
        for t in b.tangent_chern:
            cb = cb + _lift(t, sig, off)
        prod = ca * cb
        tangent = [prod.homogeneous_part(i) for i in range(1, a.dim + b.dim + 1)]
    return ChowRing("%s x %s" % (a.label, b.label),
                    sig, rels_a + rels_b, a.dim + b.dim, top=top,
                    tau=_lift(a.tau, sig, 0) * _lift(b.tau, sig, off),
                    n=a.n * b.n, tangent_chern=tangent, gb=gb)


def projective_bundle(base: ChowRing, chern, zeta: str, label=None) -> ChowRing:
    """Proj of a rank-r bundle with Chern classes c_1..c_r over the base.

    chern is the list [c_1, ..., c_r] of base ChowClasses (or Polys), each
    homogeneous of its degree or zero; the tautological relation uses the
    rank-one-quotient sign convention zeta^r - c_1 zeta^(r-1) + ... = 0.
    """
    cherns = [base.normal_form(c.rep if isinstance(c, ChowClass) else c)
              for c in chern]
    r = len(cherns)
    if zeta in base.sig.names:
        raise ValueError("zeta name clashes with a base variable")
    for i, ci in enumerate(cherns, start=1):
        if ci and (not ci.is_homogeneous() or ci.degree() != i):
            raise ValueError("c_%d must be homogeneous of degree %d" % (i, i))
    sig = Signature((zeta,) + base.sig.names, (1,) + base.sig.weights)
    rels, gens = _lifted(base, sig, 1)
    z = Poly.variable(sig, zeta)
    rel = z ** r
    for i, ci in enumerate(cherns, start=1):
        rel = rel + (-1) ** i * _lift(ci, sig, 1) * z ** (r - i)
    # rel has lead zeta^r, coprime to every base lead, and a reduced tail
    gb = _lifted_gb(sig, gens + [rel])
    top = {(r - 1,) + m: v for m, v in base.top.items()}
    return ChowRing(label or "Proj over %s" % base.label,
                    sig, rels + [rel], base.dim + r - 1, top=top, gb=gb,
                    base=base, chern=cherns)


def relative_canonical(pb: ChowRing) -> ChowClass:
    """omega of Proj(E) over the base: -r zeta + pi^* c_1(E)."""
    if pb.rank is None:
        raise ValueError("relative_canonical needs a projective-bundle ring")
    z = Poly.variable(pb.sig, pb.zeta)
    return ChowClass(pb, -pb.rank * z + _lift(pb.chern[0], pb.sig, 1))


def blowup_threefold_along_curve(base: ChowRing, curve, genus: int) -> ChowRing:
    """Blow-up of a threefold along a smooth curve of the given class/genus.

    The exceptional divisor is the new last variable, "e".
    Integration rules: pi^*D . e^2 = -(D.C)[pt], e^3 = -(-K.C + 2g - 2)[pt],
    e . pi^*(codim-2) = 0, and pi^* preserves base integrals.
    """
    if base.dim != 3:
        raise ValueError("base must be a threefold")
    if base.tangent_chern is None:
        raise ValueError("base needs tangent data to know its canonical class")
    curve_rep = curve.rep if isinstance(curve, ChowClass) else curve
    if base.sig.wdeg(curve_rep.leading_monomial()) != 2:
        raise ValueError("curve class must have codimension 2")
    if "e" in base.sig.names:
        raise ValueError("exceptional name clashes with a base variable")
    sig = Signature(base.sig.names + ("e",), base.sig.weights + (1,))
    rels, gens = _lifted(base, sig, 0)

    def degree_on_curve(p: Poly) -> Fraction:
        return base.integrate(ChowClass(base, p * curve_rep))

    top = {m + (0,): v for m, v in base.top.items()}
    for m in base.standard_monomials(1):
        top[m + (2,)] = -degree_on_curve(Poly(base.sig, {m: 1}))
    minus_k = base.tangent_chern[0]  # -K_base = c1(T_base)
    top[(0,) * len(base.sig) + (3,)] = \
        -(degree_on_curve(minus_k) + 2 * genus - 2)
    return ChowRing("Bl %s" % base.label, sig, rels, 3, top=top,
                    gb=_lifted_gb(sig, gens), base=base)


def integrate_on_hyperplane_section(ambient: ChowRing, hyperplane: ChowClass,
                                    x: ChowClass) -> Fraction:
    """Integral over the divisor cut by `hyperplane` of the restriction of x."""
    if x.ring is not ambient or hyperplane.ring is not ambient:
        raise ValueError("classes must live on the ambient ring")
    if not hyperplane.is_zero() and (not hyperplane.is_homogeneous()
                                     or hyperplane.degree() != 1):
        raise ValueError("hyperplane class must be a divisor class")
    return ambient.integrate(x * hyperplane)


# the fixed catalog ----------------------------------------------------------


@lru_cache(maxsize=None)
def catalog(name: str) -> ChowRing:
    """Named rings: Pn, P1^k, G26, Gw36, B, FB, I, Pi."""
    if name == "G26":
        sig = Signature.make([("h_2", 1), ("c_2", 2)])
        rels = [parse_poly("h_2^5 + 3*h_2*c_2^2 - 4*h_2^3*c_2", sig),
                parse_poly("-h_2^4*c_2 + 3*h_2^2*c_2^2 - c_2^3", sig)]
        return ChowRing("G26", sig, rels, 8,
                        tau=parse_poly("h_2^8", sig), n=14)
    if name == "Gw36":
        sig = Signature.make([("c_1'", 1), ("c_2'", 2), ("c_3'", 3)])
        rels = [parse_poly("c_3'^2", sig),
                parse_poly("c_2'^2 - 2*c_1'*c_3'", sig),
                parse_poly("c_1'^2 - 2*c_2'", sig)]
        return ChowRing("Gw36", sig, rels, 6,
                        tau=parse_poly("c_1'^6", sig), n=16)
    if name == "B":
        sig = Signature.make([("h_3", 1)] +
                             [("a_%d" % i, 2) for i in range(1, 5)])
        rels = [parse_poly("3*h_3^2 - 2*a_1 - 2*a_2 - 2*a_3 - 2*a_4", sig)]
        for i in range(1, 5):
            rels.append(parse_poly("8*h_3*a_%d - 3*h_3^3" % i, sig))
        for i in range(1, 5):
            for j in range(i + 1, 5):
                rels.append(parse_poly("8*a_%d*a_%d - h_3^4" % (i, j), sig))
        return ChowRing("B", sig, rels, 4,
                        tau=parse_poly("h_3^4", sig), n=16)
    if name == "FB":
        p1_4 = catalog("P1^4")
        divisor = parse_poly("alpha_1 + alpha_2 + alpha_3 + alpha_4", p1_4.sig)
        top = {m: p1_4.integrate(p1_4.cls(Poly(p1_4.sig, {m: 1}) * divisor))
               for m in p1_4.standard_monomials(3)}
        return ChowRing("FB", p1_4.sig, list(p1_4.relations), 3,
                        top=top, gb=p1_4.gb)
    if name == "I":
        fb = catalog("FB")
        h2 = parse_poly("alpha_1 + alpha_2 + alpha_3 + alpha_4", fb.sig)
        # E = (K2perp/K2)^dual (h_2) restricted to F_B: c1 = 2 h_2,
        # c2 = 2 h_2^2 - 2 c_2 = (4/3) h_2^2 under h_2^2 = 3 c_2
        c1 = 2 * h2
        c2 = Fraction(4, 3) * h2 * h2
        return projective_bundle(fb, [c1, c2], "h_3'", label="I")
    if name == "Pi":
        base = projective_space(1, var="sigma")
        sigma = Poly.variable(base.sig, "sigma")
        # E = O(2) + S2L x O: rank 4, c(E) = 1 + 2 sigma
        chern = [2 * sigma, Poly.zero(base.sig), Poly.zero(base.sig),
                 Poly.zero(base.sig)]
        return projective_bundle(base, chern, "h", label="Pi")
    if name.startswith("P1^"):
        return product_p1(int(name[3:]))
    if name.startswith("P") and name[1:].isdigit():
        return projective_space(int(name[1:]))
    raise KeyError("unknown catalog ring %r" % name)
