"""Sparse multivariate polynomials over Q, graded by per-variable weights.

Monomial order is graded reverse lexicographic, where "graded" means the
weighted degree (each variable carries a positive integer weight).  All
coefficients are fractions.Fraction; nothing here ever touches a float.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

Monomial = tuple  # tuple[int, ...], exponents in signature order
Rat = Fraction


@dataclass(frozen=True)
class Signature:
    """Ordered variable names with positive integer weights."""

    names: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.names) != len(self.weights):
            raise ValueError("names and weights must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable name in signature")
        for name in self.names:
            if not _IDENT_RE.fullmatch(name):
                raise ValueError("invalid variable name: %r" % (name,))
        for w in self.weights:
            if not isinstance(w, int) or w <= 0:
                raise ValueError("weights must be positive integers")

    @staticmethod
    def make(pairs) -> "Signature":
        names = tuple(name for name, _ in pairs)
        weights = tuple(w for _, w in pairs)
        return Signature(names, weights)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError("unknown variable %r (signature has %s)"
                           % (name, ", ".join(self.names))) from None

    def wdeg(self, mono: Monomial) -> int:
        return sum(w * e for w, e in zip(self.weights, mono))

    def pairs(self):
        return tuple(zip(self.names, self.weights))


def as_fraction(c) -> Fraction:
    """An exact rational as a Fraction; floats and bools are refused."""
    if isinstance(c, (float, bool)):
        raise TypeError("coefficients must be exact rationals, not %s"
                        % type(c).__name__)
    return Fraction(c)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True if a | b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def grevlex_key(sig: Signature, mono: Monomial):
    """Sort key: larger key = larger monomial in weighted grevlex.

    Ties in weighted degree break reverse-lexicographically: the monomial
    with the smaller exponent on the last differing variable is larger.
    """
    return (sig.wdeg(mono), tuple(-e for e in reversed(mono)))


class Poly:
    """Immutable sparse polynomial attached to a Signature."""

    __slots__ = ("sig", "terms", "_hash")

    def __init__(self, sig: Signature, terms=None):
        object.__setattr__(self, "sig", sig)
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                if type(coeff) is not Fraction:
                    coeff = as_fraction(coeff)
                if coeff:
                    clean[tuple(mono)] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    # construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature) -> "Poly":
        return cls(sig)

    @classmethod
    def constant(cls, sig: Signature, c) -> "Poly":
        return cls(sig, {(0,) * len(sig): c})

    @classmethod
    def one(cls, sig: Signature) -> "Poly":
        return cls.constant(sig, 1)

    @classmethod
    def variable(cls, sig: Signature, name: str) -> "Poly":
        i = sig.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(sig)))
        return cls(sig, {mono: Fraction(1)})

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.sig != self.sig:
                raise ValueError("polynomials live in different signatures")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.sig, other)
        return NotImplemented

    # ring operations ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + c
        return Poly(self.sig, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.sig, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                terms[m] = terms.get(m, Fraction(0)) + c1 * c2
        return Poly(self.sig, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.one(self.sig)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c) -> "Poly":
        if type(c) is not Fraction:
            c = as_fraction(c)
        return Poly(self.sig, {m: c * k for m, k in self.terms.items()})

    # predicates and parts -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.sig, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(
                self, "_hash",
                hash((self.sig, frozenset(self.terms.items()))))
        return self._hash

    def degree(self) -> int:
        """Maximal weighted degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.sig.wdeg(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {self.sig.wdeg(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_part(self, d: int) -> "Poly":
        return Poly(self.sig, {m: c for m, c in self.terms.items()
                               if self.sig.wdeg(m) == d})

    def homogeneous_parts(self) -> dict:
        out = {}
        for m, c in self.terms.items():
            out.setdefault(self.sig.wdeg(m), {})[m] = c
        return {d: Poly(self.sig, t) for d, t in sorted(out.items())}

    def sorted_terms(self):
        """Terms in descending monomial order."""
        key = lambda item: grevlex_key(self.sig, item[0])
        return sorted(self.terms.items(), key=key, reverse=True)

    def leading_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=lambda m: grevlex_key(self.sig, m))
        return mono, self.terms[mono]

    def leading_monomial(self) -> Monomial:
        return self.leading_term()[0]

    def leading_coefficient(self) -> Rat:
        return self.leading_term()[1]

    def monic(self) -> "Poly":
        if not self.terms:
            return self
        return self.scale(1 / self.leading_coefficient())

    def constant_term(self) -> Rat:
        return self.terms.get((0,) * len(self.sig), Fraction(0))

    def coefficient_of(self, name: str, power: int) -> "Poly":
        """Coefficient of name**power, as a polynomial in the same signature."""
        i = self.sig.index(name)
        terms = {}
        for m, c in self.terms.items():
            if m[i] == power:
                terms[tuple(0 if j == i else e for j, e in enumerate(m))] = c
        return Poly(self.sig, terms)

    def evaluate(self, values: dict) -> Rat:
        """Full evaluation at a rational point given by {name: value}."""
        vals = []
        for name in self.sig.names:
            if name not in values:
                raise KeyError("no value supplied for %r" % name)
            vals.append(Fraction(values[name]))
        total = Fraction(0)
        for m, c in self.terms.items():
            prod = c
            for v, e in zip(vals, m):
                if e:
                    prod *= v ** e
            total += prod
        return total

    # printing -------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for mono, coeff in self.sorted_terms():
            mono_str = "*".join(
                name if e == 1 else "%s^%d" % (name, e)
                for name, e in zip(self.sig.names, mono) if e)
            mag = abs(coeff)
            if not mono_str:
                body = str(mag)
            elif mag == 1:
                body = mono_str
            else:
                body = "%s*%s" % (mag, mono_str)
            pieces.append((coeff < 0, body))
        first_neg, first_body = pieces[0]
        out = ("-" if first_neg else "") + first_body
        for neg, body in pieces[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __repr__(self):
        return "Poly(%s)" % self


# parsing -------------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_']*")
_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_']*)"
                       r"|(?P<op>[-+*^()/]))")


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items = []  # (kind, value, pos)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                raise ParseError("unexpected character %r" % stripped[0],
                                 len(text) - len(stripped))
            kind = m.lastgroup
            self.items.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def peek(self):
        if self.i < len(self.items):
            return self.items[self.i]
        return ("end", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


def parse_poly(text: str, sig: Signature) -> Poly:
    """Parse the wire grammar: + - * ^, integer and p/q literals, parens.

    ^ binds tightest and takes a nonnegative integer exponent; unary minus
    binds loosest (applies to a whole product).
    """
    toks = _Tokens(text)
    poly = _parse_expr(toks, sig)
    kind, value, pos = toks.peek()
    if kind != "end":
        raise ParseError("trailing input %r" % value, pos)
    return poly


def _parse_expr(toks: _Tokens, sig: Signature) -> Poly:
    negate = False
    kind, value, _ = toks.peek()
    if kind == "op" and value == "-":
        toks.next()
        negate = True
    elif kind == "op" and value == "+":
        toks.next()
    acc = _parse_term(toks, sig)
    if negate:
        acc = -acc
    while True:
        kind, value, _ = toks.peek()
        if kind == "op" and value in "+-":
            toks.next()
            term = _parse_term(toks, sig)
            acc = acc + term if value == "+" else acc - term
        else:
            return acc


def _parse_term(toks: _Tokens, sig: Signature) -> Poly:
    acc = _parse_factor(toks, sig)
    while True:
        kind, value, _ = toks.peek()
        if kind == "op" and value == "*":
            toks.next()
            acc = acc * _parse_factor(toks, sig)
        else:
            return acc


def _parse_factor(toks: _Tokens, sig: Signature) -> Poly:
    base = _parse_atom(toks, sig)
    kind, value, _ = toks.peek()
    if kind == "op" and value == "^":
        toks.next()
        kind, value, pos = toks.next()
        if kind != "int":
            raise ParseError("exponent must be an integer literal", pos)
        base = base ** int(value)
    return base


def _parse_atom(toks: _Tokens, sig: Signature) -> Poly:
    kind, value, pos = toks.next()
    if kind == "int":
        num = int(value)
        kind2, value2, _ = toks.peek()
        if kind2 == "op" and value2 == "/":
            toks.next()
            kind3, value3, pos3 = toks.next()
            if kind3 != "int":
                raise ParseError("denominator must be an integer literal", pos3)
            den = int(value3)
            if den == 0:
                raise ParseError("zero denominator", pos3)
            return Poly.constant(sig, Fraction(num, den))
        return Poly.constant(sig, num)
    if kind == "ident":
        if value not in sig.names:
            raise ParseError("unknown variable %r" % value, pos)
        return Poly.variable(sig, value)
    if kind == "op" and value == "(":
        inner = _parse_expr(toks, sig)
        kind2, value2, pos2 = toks.next()
        if not (kind2 == "op" and value2 == ")"):
            raise ParseError("expected ')'", pos2)
        return inner
    raise ParseError("expected a number, variable, or '('", pos)


# division and Groebner bases ----------------------------------------------


def reduce_poly(p: Poly, divisors) -> Poly:
    """Full normal form of p modulo the list of divisors.

    Every monomial of the result is divisible by no leading monomial of the
    divisors.  Deterministic: always cancels the largest reducible monomial.
    """
    divisors = [d for d in divisors if not d.is_zero()]
    leads = [(d.leading_monomial(), d) for d in divisors]
    sig = p.sig
    remainder = {}
    work = dict(p.terms)
    while work:
        mono = max(work, key=lambda m: grevlex_key(sig, m))
        coeff = work.pop(mono)
        if not coeff:
            continue
        for lead, d in leads:
            if mono_divides(lead, mono):
                shift = mono_div(mono, lead)
                factor = coeff / d.leading_coefficient()
                for m2, c2 in d.terms.items():
                    m = mono_mul(m2, shift)
                    if m == mono:
                        continue
                    work[m] = work.get(m, Fraction(0)) - factor * c2
                break
        else:
            remainder[mono] = remainder.get(mono, Fraction(0)) + coeff
    return Poly(sig, remainder)


def s_polynomial(f: Poly, g: Poly) -> Poly:
    lf, cf = f.leading_term()
    lg, cg = g.leading_term()
    lcm = mono_lcm(lf, lg)
    mf = Poly(f.sig, {mono_div(lcm, lf): 1 / cf})
    mg = Poly(g.sig, {mono_div(lcm, lg): 1 / cg})
    return mf * f - mg * g


def buchberger(generators, max_pairs: int = 200000):
    """Reduced Groebner basis by Buchberger's algorithm.

    Pair selection is by sugar degree (then lcm degree, then grevlex on the
    lcm) for determinism; the coprime-lead criterion prunes useless pairs.
    Output is the unique reduced basis, monic, sorted by ascending leading
    monomial.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    sig = gens[0].sig
    for g in gens:
        if g.sig != sig:
            raise ValueError("generators live in different signatures")

    basis = []
    sugars = []

    def add(poly: Poly, sugar: int):
        basis.append(poly.monic())
        sugars.append(sugar)
        return len(basis) - 1

    for g in sorted(gens, key=lambda p: grevlex_key(sig, p.leading_monomial())):
        add(g, g.degree())

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    processed = 0
    while pairs:
        processed += 1
        if processed > max_pairs:
            raise RuntimeError("Buchberger pair budget exhausted")

        def pair_key(ij):
            i, j = ij
            li = basis[i].leading_monomial()
            lj = basis[j].leading_monomial()
            lcm = mono_lcm(li, lj)
            d = sig.wdeg(lcm)
            sugar = max(sugars[i] + d - sig.wdeg(li),
                        sugars[j] + d - sig.wdeg(lj))
            return (sugar, d, grevlex_key(sig, lcm), i, j)

        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        li = basis[i].leading_monomial()
        lj = basis[j].leading_monomial()
        lcm = mono_lcm(li, lj)
        if lcm == mono_mul(li, lj):  # coprime leads: S-poly reduces to zero
            continue
        s = s_polynomial(basis[i], basis[j])
        s = reduce_poly(s, basis)
        if s.is_zero():
            continue
        d = sig.wdeg(lcm)
        sugar = max(sugars[i] + d - sig.wdeg(li),
                    sugars[j] + d - sig.wdeg(lj))
        k = add(s, max(sugar, s.degree()))
        pairs.update((min(k, m), max(k, m)) for m in range(k))

    return _reduce_basis(basis)


def _reduce_basis(basis):
    """Minimalize then inter-reduce; canonical ascending-lead order."""
    sig = basis[0].sig
    # drop elements whose lead is divisible by another's lead
    keep = []
    leads = [b.leading_monomial() for b in basis]
    for i, b in enumerate(basis):
        li = leads[i]
        redundant = False
        for j, lj in enumerate(leads):
            if i == j:
                continue
            if mono_divides(lj, li) and (lj != li or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(b)
    # tail-reduce each against the rest until stable
    changed = True
    while changed:
        changed = False
        for i in range(len(keep)):
            others = keep[:i] + keep[i + 1:]
            r = reduce_poly(keep[i], others).monic()
            if r.is_zero():
                keep.pop(i)
                changed = True
                break
            if r != keep[i]:
                keep[i] = r
                changed = True
    keep.sort(key=lambda p: grevlex_key(sig, p.leading_monomial()))
    return keep


class GroebnerBasis:
    """A reduced Groebner basis with normal-form and Hilbert services."""

    def __init__(self, generators, precomputed: bool = False):
        gens = [g for g in generators if not g.is_zero()]
        if not gens:
            raise ValueError("need at least one nonzero generator")
        self.sig = gens[0].sig
        self.elements = list(gens) if precomputed else buchberger(gens)
        self.leads = [g.leading_monomial() for g in self.elements]

    def normal_form(self, p: Poly) -> Poly:
        if p.sig != self.sig:
            raise ValueError("polynomial signature does not match basis")
        return reduce_poly(p, self.elements)

    def contains(self, p: Poly) -> bool:
        return self.normal_form(p).is_zero()

    def standard_monomials(self, degree: int):
        """Monomials of the given weighted degree outside the lead ideal."""
        return [m for m in monomials_of_degree(self.sig, degree)
                if not any(mono_divides(l, m) for l in self.leads)]

    def hilbert_function(self, max_degree: int):
        """Dimensions of the graded quotient up to max_degree inclusive."""
        return [len(self.standard_monomials(d)) for d in range(max_degree + 1)]

    def __iter__(self) -> Iterator[Poly]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def monomials_of_degree(sig: Signature, degree: int):
    """All monomials of exact weighted degree, in a deterministic order."""
    n = len(sig)
    out = []

    def rec(i: int, remaining: int, acc):
        if i == n:
            if remaining == 0:
                out.append(tuple(acc))
            return
        w = sig.weights[i]
        if i == n - 1:
            if remaining % w == 0:
                out.append(tuple(acc + [remaining // w]))
            return
        for e in range(remaining // w + 1):
            rec(i + 1, remaining - w * e, acc + [e])

    rec(0, degree, [])
    return out
