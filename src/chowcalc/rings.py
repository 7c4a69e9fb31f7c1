"""Presented Chow rings with exact integration.

A ring is a graded quotient Q[vars]/I, held through the reduced Groebner
basis of I (every ring has one), with a dimension and a top-degree
functional `top` that maps standard monomials of degree `dim` to their
integrals (absent monomials integrate to 0).  Integrating a class is one dot
product of `top` with its normal form.  Each constructor builds `top` once:
in presented, from a normalization tau -> n, where the top piece must be
one standard monomial; as the product of the factors' maps in product_ring;
as zeta^(r-1) m -> integral over the base of m in projective_bundle, in the
rank-one-quotient convention zeta^r - c1 zeta^(r-1) + ... + (-1)^r c_r = 0;
from the exceptional-divisor rules in blowup_threefold_along_curve; and as
m -> integral over P1^4 of m (alpha_1 + ... + alpha_4) for the
hyperplane-section model FB.

Every class is held in normal form.  A linear combination of standard
monomials is itself in normal form, and so is a constant, because no ring
holds a relation of degree 0 (ChowRing refuses a basis that holds a
constant).  So sums, differences, negations and scalar multiples of
classes, and the constants zero(), one() and const(c), take their result
as it is, through the one trusted constructor _standard, with no division;
tests/test_standard_sites.py holds src/ to its listed call sites.
Products, powers, parse and any Poly given to cls reduce once; var reduces
once per ring and variable, and returns the same class afterwards.  A
power x^n of a single term (zeta^n, say) is a single term, so it is raised
in Q[vars] and reduced once; any other power is squared and multiplied,
about 2 log2 n products, each reduced.  The normal form itself is the
ring's basis' (poly.GroebnerBasis), and it returns a polynomial that is
already standard as it is.

Presented rings compute their reduced basis degree by degree
(poly.groebner_basis) and find each monomial's normal form by dividing it
by that basis, once.  Derived rings run neither computation nor
division.  Their basis is the lifted reduced bases of their factors or
base, plus a bundle's tautological relation, whose lead zeta^r is coprime
to every base lead; _lifted keeps the lifted relations and basis on the
base, one per (signature, offset).  Each monomial's normal form comes
from the base's by one of three rules (the normal form is unique, so each
gives the division's remainder):
  - blow-up: NF(m e^k) = NF_base(m) e^k;
  - product: NF(m_a m_b) = NF_A(m_a) NF_B(m_b);
  - projective bundle of rank r: NF(zeta^k m) = sum over j < r of
    zeta^j NF_base(s_kj m), where zeta^k = sum_j zeta^j s_kj comes from a
    per-ring table, extended one power at a time through the tautological
    relation.
A derived basis keeps these forms in its memo for monomials of weighted
degree at most the ring's dimension, and a presented basis keeps its own
monomials' forms below the degree where its quotient vanishes.  A
blow-up's basis depends on its base alone and a product's on its two
factors, so each is built once and kept on the base (or first factor),
one per signature and dimension, with its memo.
One embedding, _lift, moves a Poly into a derived ring's variables: the
base's (or a factor's) variables sit at a fixed offset in the new
signature, and the exponent tuples are padded with zeros on both sides
(pushforward drops them again).  Every entry here and in bundles takes a
class through ChowRing.cls: a class of the ring as it is, a Poly reduced
once (the normal form refuses another signature), a number through const
(the exact gate admits only ints and Fractions), and a class of another
ring refused ("different ring").
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from chowcalc.poly import (
    GroebnerBasis,
    Poly,
    Signature,
    _nonzero,
    _reduced,
    as_int,
    coefficient,
    exact_div,
    mono_mul,
    parse_poly,
)


class ChowClass:
    """An element of a ChowRing, stored in normal form."""

    __slots__ = ("ring", "rep")

    def __init__(self, ring: "ChowRing", rep: Poly):
        self.ring = ring
        self.rep = ring.gb.normal_form(rep)

    def _coerce(self, other):
        if isinstance(other, (ChowClass, Poly, int, Fraction)):
            return self.ring.cls(other)
        return NotImplemented

    # sums and scalar multiples of normal forms are normal forms

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _standard(self.ring, self.rep + other.rep)

    __radd__ = __add__

    def __neg__(self):
        return _standard(self.ring, -self.rep)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _standard(self.ring, self.rep - other.rep)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _standard(self.ring, self.rep.scale(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ChowClass(self.ring, self.rep * other.rep)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = as_int(n)
        if n < 0:
            raise ValueError("negative power of a Chow class")
        if n == 0:
            return self.ring.one()
        if len(self.rep.num) <= 1:
            # a power of a term is a term: one normal form
            return ChowClass(self.ring, self.rep ** n)
        # square and multiply, each product in normal form
        out = None
        base = self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def __eq__(self, other):
        # a number compares as a constant class; a bool or a float compares
        # unequal rather than being refused.  A raw Poly compares unequal
        # too: equal to its class only after reduction, which no hash can
        # do, it would break a == b => hash(a) == hash(b)
        if type(other) is int or type(other) is Fraction:
            other = self.ring.const(other)
        if not isinstance(other, ChowClass):
            return NotImplemented
        return self.ring is other.ring and self.rep == other.rep

    def __hash__(self):
        # a constant class equals its number and hashes like it, as its
        # normal form does
        return hash(self.rep)

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


def _standard(ring: "ChowRing", rep: Poly) -> ChowClass:
    """The class of rep, which is already in normal form: no division."""
    x = object.__new__(ChowClass)
    x.ring = ring
    x.rep = rep
    return x


class ChowRing:
    """A presented ring and its top-degree functional, as described above.

    `gb`, the reduced basis of the relations' ideal, is computed from them
    when not given, so a ring needs a nonzero relation; a basis that holds
    a constant (the unit ideal) is refused.  A ring without
    `top` refuses to integrate; presented() makes `top` from a
    normalization.

    A projective bundle also passes `base` and `chern`, the base Polys
    c_1..c_r (zeros included): its `rank` is len(chern) and its bundle
    variable `zeta` is sig.names[0], where projective_bundle puts it.
    """

    def __init__(self, label, sig, relations, dim, *, top=None, base=None,
                 chern=None, tangent_chern=None, gb=None):
        self.label = label
        self.sig = sig
        self.relations = list(relations)
        self.dim = dim
        self.base = base
        self.chern = chern
        self.rank = len(chern) if chern is not None else None
        self.zeta = sig.names[0] if chern is not None else None
        self.tangent_chern = tangent_chern  # list of Polys c_1..c_dim or None
        self.todd = None  # normal form of td(T), set by bundles on first use
        self._vars = {}  # name -> the class of that variable, built once
        self._lifts = {}  # (sig, offset) -> lifted relations and basis
        self._bases = {}  # (sig, dim) -> (partner, basis), see _reused_gb
        self.gb = gb if gb is not None else GroebnerBasis(self.relations)
        if not all(any(lead) for lead in self.gb.leads):
            raise ValueError("the relations of %s generate the unit ideal"
                             % label)
        # top-degree standard monomial -> integral, stored like a coefficient
        self.top = None if top is None else {m: coefficient(v)
                                             for m, v in top.items()}

    # element constructors -------------------------------------------------

    def parse(self, text: str) -> ChowClass:
        return ChowClass(self, parse_poly(text, self.sig))

    def var(self, name: str) -> ChowClass:
        x = self._vars.get(name)
        if x is None:
            x = self._vars[name] = ChowClass(self, Poly.variable(self.sig, name))
        return x

    def const(self, c) -> ChowClass:
        return _standard(self, Poly.constant(self.sig, c))

    def zero(self) -> ChowClass:
        return _standard(self, Poly.zero(self.sig))

    def one(self) -> ChowClass:
        return self.const(1)

    def cls(self, x, what: str = "class") -> ChowClass:
        """x as a class of this ring, by the rule in the module docstring."""
        if isinstance(x, ChowClass):
            if x.ring is not self:
                raise ValueError("%s lives on %s, a different ring from %s"
                                 % (what, x.ring.label, self.label))
            return x
        if isinstance(x, Poly):
            return ChowClass(self, x)
        return self.const(x)

    # structure ------------------------------------------------------------

    def normal_form(self, p: Poly) -> Poly:
        return self.gb.normal_form(p)

    def standard_monomials(self, degree: int):
        return self.gb.standard_monomials(degree)

    def hilbert_function(self):
        return self.gb.hilbert_function(self.dim)

    # integration ----------------------------------------------------------

    def integrate(self, x) -> Fraction:
        rep = self.cls(x).rep
        degrees = set(map(self.sig.wdeg, rep.num))  # each read once
        if len(degrees) > 1:
            raise ValueError("cannot integrate an inhomogeneous class")
        if degrees != {self.dim}:
            return Fraction(0)
        if self.top is None:
            raise ValueError("ring %s has no integration rule" % self.label)
        # integer numerators against `top`, one Fraction at the end
        top = self.top
        return Fraction(sum(c * top.get(m, 0) for m, c in rep.num.items()),
                        rep.den)

    def pushforward(self, x) -> ChowClass:
        """pi_* to the base of a bundle ring (zeta-degree r-1 coefficient)."""
        if self.rank is None:
            raise ValueError("pushforward needs a projective-bundle ring")
        x = self.cls(x)
        num = {m[1:]: c for m, c in x.rep.num.items()
               if m[0] == self.rank - 1}
        return ChowClass(self.base, Poly(self.base.sig, num, x.rep.den))

    def pullback(self, x) -> ChowClass:
        """pi^* from the base of a bundle ring (inject base variables)."""
        if self.rank is None:
            raise ValueError("pullback needs a projective-bundle ring")
        x = self.base.cls(x)
        return ChowClass(self, _lift(x.rep, self.sig, 1))

    def __repr__(self):
        return "ChowRing(%s, dim %d)" % (self.label, self.dim)


# constructors ---------------------------------------------------------------


def presented(label, sig, relations, dim, tau, n,
              tangent_chern=None) -> ChowRing:
    """Q[sig]/(relations), normalized so that the class tau integrates to n.

    The top graded piece must be one standard monomial m; tau's normal form
    c m then gives top = {m: n / c}.
    """
    gb = GroebnerBasis(relations)
    t = gb.normal_form(tau)
    if len(t.num) != 1 \
            or gb.standard_monomials(dim) != [t.leading_monomial()]:
        raise ValueError("top graded piece of %s is not visibly "
                         "one-dimensional" % label)
    mono, c = t.leading_term()
    return ChowRing(label, sig, relations, dim, top={mono: exact_div(n, c)},
                    tangent_chern=tangent_chern, gb=gb)


def projective_space(n: int, var: str = "h") -> ChowRing:
    sig = Signature.make([(var, 1)])
    h = Poly.variable(sig, var)
    tangent = [Poly.constant(sig, comb(n + 1, i)) * h ** i
               for i in range(1, n + 1)]
    return presented("P%d" % n if var == "h" else "P%d[%s]" % (n, var),
                     sig, [h ** (n + 1)], n, h ** n, 1, tangent)


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
    return presented("P1^%d" % k, sig, rels, k, tau, 1, tangent)


def _lift(p: Poly, sig: Signature, offset: int) -> Poly:
    """p with its variables placed at sig's positions offset, offset + 1, ..."""
    left = (0,) * offset
    right = (0,) * (len(sig) - offset - len(p.sig))
    return Poly(sig, {left + m + right: c for m, c in p.num.items()}, p.den)


def _lifted(ring: ChowRing, sig: Signature, offset: int):
    """The ring's relations and reduced basis, each lifted by _lift; kept on
    the ring per (sig, offset), so rebuilding a derived ring lifts nothing."""
    key = (sig, offset)
    lifted = ring._lifts.get(key)
    if lifted is None:
        lifted = ring._lifts[key] = (
            [_lift(r, sig, offset) for r in ring.relations],
            [_lift(g, sig, offset) for g in ring.gb])
    return lifted


def _reused_gb(ring: ChowRing, partner, sig: Signature, elements, rule,
               dim: int):
    """A blow-up's or product's derived basis over `ring`.  It depends only
    on the ring's basis and on `partner` (the other factor's basis, or
    None), so it is kept on the ring, one per (sig, dim), and reused, its
    forms warm, while the same partner comes back."""
    key = (sig, dim)
    kept = ring._bases.get(key)
    if kept is None or kept[0] is not partner:
        kept = ring._bases[key] = (
            partner, GroebnerBasis.derived(elements, rule, dim))
    return kept[1]


def _product_rule(gb_a: GroebnerBasis, gb_b: GroebnerBasis, off: int):
    """NF(m_a m_b) = NF_A(m_a) NF_B(m_b): each lead lies in one factor."""
    form_a, form_b = gb_a.form, gb_b.form

    def rule(mono):
        ma, mb = mono[:off], mono[off:]
        fa, fb = form_a(ma), form_b(mb)
        if fa is None and fb is None:
            return None
        (na, da), (nb, db) = fa or ({ma: 1}, 1), fb or ({mb: 1}, 1)
        return _reduced({x + y: c * d for x, c in na.items()
                         for y, d in nb.items()}, da * db)

    return rule


def _blowup_rule(base_gb: GroebnerBasis):
    """NF(m e^k) = NF_base(m) e^k: no lead involves e, the last variable."""
    form = base_gb.form

    def rule(mono):
        f = form(mono[:-1])
        if f is None:
            return None
        e = mono[-1:]
        return {m + e: c for m, c in f[0].items()}, f[1]

    return rule


def product_ring(a: ChowRing, b: ChowRing) -> ChowRing:
    if a.top is None or b.top is None:
        raise ValueError("product_ring needs two rings with integration rules")
    clash = set(a.sig.names) & set(b.sig.names)
    if clash:
        raise ValueError("variable name clash: %s" % ", ".join(sorted(clash)))
    sig = Signature(a.sig.names + b.sig.names, a.sig.weights + b.sig.weights)
    off = len(a.sig)
    dim = a.dim + b.dim
    rels_a, gens_a = _lifted(a, sig, 0)
    rels_b, gens_b = _lifted(b, sig, off)
    # disjoint variables: the union of the two reduced bases is reduced
    gb = _reused_gb(a, b.gb, sig, gens_a + gens_b,
                    _product_rule(a.gb, b.gb, off), dim)
    top = {ma + mb: va * vb
           for ma, va in a.top.items() for mb, vb in b.top.items()}
    tangent = None
    if a.tangent_chern is not None and b.tangent_chern is not None:
        # c(T) = c(T_A) c(T_B), split into degrees 1..dim in one pass
        parts = [{} for _ in range(dim + 1)]
        terms_b = _chern_terms(b)
        for ma, x, da in _chern_terms(a):
            for mb, y, db in terms_b:
                if da + db <= dim:
                    part = parts[da + db]
                    part[ma + mb] = part.get(ma + mb, 0) + x * y
        tangent = [Poly(sig, part) for part in parts[1:]]
    return ChowRing("%s x %s" % (a.label, b.label),
                    sig, rels_a + rels_b, dim, top=top,
                    tangent_chern=tangent, gb=gb)


def _chern_terms(ring: ChowRing):
    """(monomial, coefficient, weighted degree) of each term of c(T)."""
    sig = ring.sig
    return [((0,) * len(sig), 1, 0)] + [
        (m, c, sig.wdeg(m)) for t in ring.tangent_chern
        for m, c in t.terms.items()]


def projective_bundle(base: ChowRing, chern, zeta: str, label=None) -> ChowRing:
    """Proj of a rank-r bundle with Chern classes c_1..c_r over the base.

    chern is the list [c_1, ..., c_r], each taken by base.cls and each
    homogeneous of its degree or zero; the tautological relation uses the
    rank-one-quotient sign convention zeta^r - c_1 zeta^(r-1) + ... = 0.
    The base must have an integration rule.
    """
    if base.top is None:
        raise ValueError("projective_bundle needs a base with an "
                         "integration rule")
    cherns = [base.cls(c, "c_%d" % i).rep
              for i, c in enumerate(chern, start=1)]
    r = len(cherns)
    if zeta in base.sig.names:
        raise ValueError("zeta name clashes with a base variable")
    for i, ci in enumerate(cherns, start=1):
        if ci and (not ci.is_homogeneous() or ci.degree() != i):
            raise ValueError("c_%d must be homogeneous of degree %d" % (i, i))
    sig = Signature((zeta,) + base.sig.names, (1,) + base.sig.weights)
    rels, gens = _lifted(base, sig, 1)
    # zeta^r = sum_j zeta^j s_rj, s_(r, r-i) = (-1)^(i+1) c_i; the relation
    # is zeta^r minus that sum, written term by term
    taut = [None] * r
    terms = {(r,) + (0,) * len(base.sig): 1}
    for i, ci in enumerate(cherns, start=1):
        sign = 1 if i % 2 else -1
        taut[r - i] = {m: sign * c for m, c in ci.num.items()}, ci.den
        for m, c in ci.terms.items():
            terms[(r - i,) + m] = -sign * c
    rel = Poly(sig, terms)
    dim = base.dim + r - 1
    gb = GroebnerBasis.derived(gens + [rel], _bundle_rule(base.gb, taut), dim)
    top = {(r - 1,) + m: v for m, v in base.top.items()}
    return ChowRing(label or "Proj over %s" % base.label,
                    sig, rels + [rel], dim, top=top, gb=gb,
                    base=base, chern=cherns)


def _bundle_rule(base_gb: GroebnerBasis, taut):
    """NF(zeta^k m) = sum over j < r of zeta^j NF_base(s_kj m), where
    zeta^k = sum_j zeta^j s_kj.  No lead but zeta^r involves zeta, so for
    k < r this is zeta^k NF_base(m).  `taut` is [s_r0, ..., s_r(r-1)], and
    zeta^(k+1) = zeta zeta^k gives
        s_(k+1)j = s_k(j-1) + NF_base(s_k(r-1) s_rj);
    `powers[k - r]` holds [s_k0, ..., s_k(r-1)], one power added at a time.
    Every s_kj, like every form, is a (num, den) pair in lowest terms."""
    r = len(taut)
    form = base_gb.form
    powers = [taut]
    unit = ({(0,) * len(base_gb.sig): 1}, 1)

    def forms_of(items):
        """The (num, den) pair of the sum over items (prefix, a, b) of
        NF_base(a b), a and b (num, den) pairs of base polynomials, each
        monomial keyed as prefix + it: () for base terms, (j,) for terms of
        zeta^j.  The forms are brought to the lcm of their denominators."""
        found = []
        for prefix, (a, da), (b, db) in items:
            for x, c in a.items():
                for y, d in b.items():
                    m = mono_mul(x, y)
                    num, den = form(m) or ({m: 1}, 1)
                    found.append((prefix, c * d, da * db * den, num))
        den = lcm(*[f[2] for f in found])
        out = {}
        get = out.get
        for prefix, c, d, num in found:
            c *= den // d
            for x, v in num.items():
                key = prefix + x
                out[key] = get(key, 0) + c * v
        return _reduced(_nonzero(out), den)

    def power(k):
        while len(powers) <= k - r:
            last = powers[-1]
            if not any(num for num, _ in last):
                return last  # zeta^k is 0, and so is every higher power
            shifted = [({}, 1)] + last[:-1]  # zeta times the s_k(j-1)
            powers.append([forms_of([((), s, unit), ((), last[-1], t)])
                           for s, t in zip(shifted, taut)])
        return powers[k - r]

    def rule(mono):
        k, m = mono[0], mono[1:]
        if k < r:
            f = form(m)
            if f is None:
                return None
            return {(k,) + x: c for x, c in f[0].items()}, f[1]
        return forms_of([((j,), s, ({m: 1}, 1))
                         for j, s in enumerate(power(k))])

    return rule


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

    The base needs an integration rule and tangent data.  The curve class,
    taken by base.cls, must be nonzero and homogeneous of
    codimension 2 in the ring (alpha_1^2 on P1^3 is 0 there); any other is
    refused with a ValueError before any ring is built.  Any integer genus
    is accepted, the arithmetic genus of a disconnected curve
    included (two disjoint lines have genus -1).
    """
    genus = as_int(genus)
    if base.dim != 3:
        raise ValueError("base must be a threefold")
    if base.top is None:
        raise ValueError("blowup_threefold_along_curve needs a base with an "
                         "integration rule")
    if base.tangent_chern is None:
        raise ValueError("base needs tangent data to know its canonical class")
    curve_rep = base.cls(curve, "curve class").rep
    if curve_rep.degree() != 2 or not curve_rep.is_homogeneous():
        raise ValueError("curve class must be a nonzero class of codimension 2")
    if "e" in base.sig.names:
        raise ValueError("exceptional name clashes with a base variable")
    sig = Signature(base.sig.names + ("e",), base.sig.weights + (1,))
    rels, gens = _lifted(base, sig, 0)
    # the basis depends on the base only, not on the curve
    gb = _reused_gb(base, None, sig, gens, _blowup_rule(base.gb), 3)

    def degree_on_curve(p: Poly) -> Fraction:
        return base.integrate(p * curve_rep)

    top = {m + (0,): v for m, v in base.top.items()}
    for m in base.standard_monomials(1):
        top[m + (2,)] = -degree_on_curve(Poly(base.sig, {m: 1}))
    minus_k = base.tangent_chern[0]  # -K_base = c1(T_base)
    top[(0,) * len(base.sig) + (3,)] = \
        -(degree_on_curve(minus_k) + 2 * genus - 2)
    return ChowRing("Bl %s" % base.label, sig, rels, 3, top=top, gb=gb,
                    base=base)


def integrate_on_hyperplane_section(ambient: ChowRing, hyperplane,
                                    x) -> Fraction:
    """Integral over the divisor cut by `hyperplane` of the restriction of x."""
    hyperplane = ambient.cls(hyperplane, "hyperplane class")
    x = ambient.cls(x)
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
        return presented("G26", sig, rels, 8, parse_poly("h_2^8", sig), 14)
    if name == "Gw36":
        sig = Signature.make([("c_1'", 1), ("c_2'", 2), ("c_3'", 3)])
        rels = [parse_poly("c_3'^2", sig),
                parse_poly("c_2'^2 - 2*c_1'*c_3'", sig),
                parse_poly("c_1'^2 - 2*c_2'", sig)]
        return presented("Gw36", sig, rels, 6, parse_poly("c_1'^6", sig), 16)
    if name == "B":
        sig = Signature.make([("h_3", 1)] +
                             [("a_%d" % i, 2) for i in range(1, 5)])
        rels = [parse_poly("3*h_3^2 - 2*a_1 - 2*a_2 - 2*a_3 - 2*a_4", sig)]
        for i in range(1, 5):
            rels.append(parse_poly("8*h_3*a_%d - 3*h_3^3" % i, sig))
        for i in range(1, 5):
            for j in range(i + 1, 5):
                rels.append(parse_poly("8*a_%d*a_%d - h_3^4" % (i, j), sig))
        return presented("B", sig, rels, 4, parse_poly("h_3^4", sig), 16)
    if name == "FB":
        p1_4 = catalog("P1^4")
        divisor = parse_poly("alpha_1 + alpha_2 + alpha_3 + alpha_4", p1_4.sig)
        top = {m: p1_4.integrate(Poly(p1_4.sig, {m: 1}) * divisor)
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
