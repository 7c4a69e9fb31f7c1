"""Sparse multivariate polynomials over Q, graded by per-variable weights.

Monomial order is graded reverse lexicographic, where "graded" means the
weighted degree (each variable carries a positive integer weight).  All
coefficients are fractions.Fraction; nothing here ever touches a float.
"""

from __future__ import annotations

import itertools
import operator
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
            if as_int(w) <= 0:
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


def as_fraction(c) -> Fraction:
    """An exact rational as a Fraction; floats and bools are refused."""
    if isinstance(c, (float, bool)):
        raise TypeError("coefficients must be exact rationals, not %s"
                        % type(c).__name__)
    return Fraction(c)


def as_int(x) -> int:
    """An exact integer; floats, bools and other non-integers are refused."""
    if isinstance(x, (float, bool)):
        raise TypeError("expected an integer, not %s" % type(x).__name__)
    return operator.index(x)


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

    When every divisor is a single term, the remainder is the terms of p
    that no divisor divides, read off without the division loop.  It is the
    loop's own answer for any such list, Groebner basis or not: cancelling
    a term by a monomial deletes that term and adds no other, so the loop
    only ever drops the divisible terms of p and keeps the rest.
    """
    divisors = [d for d in divisors if not d.is_zero()]
    sig = p.sig
    if all(len(d.terms) == 1 for d in divisors):
        monos = [next(iter(d.terms)) for d in divisors]
        return Poly(sig, {m: c for m, c in p.terms.items()
                          if not any(mono_divides(l, m) for l in monos)})
    leads = [(d.leading_monomial(), d) for d in divisors]
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


def groebner_basis(generators):
    """Reduced Groebner basis of a homogeneous ideal, one degree at a time.

    The degree-d piece I_d is spanned by the degree-d generators and by
    x_i times the echelon rows of I_(d - w_i); its fully reduced echelon
    form, with pivots at grevlex-largest monomials, has one row lead - NF(lead)
    per lead monomial of degree d.  A lead that no earlier lead divides gives
    a basis element.  Once d is past every generator degree and every lcm
    degree of two non-coprime leads, each S-polynomial has reduced to zero
    (Buchberger's criterion), so the basis is complete.  Output is monic,
    sorted by ascending leading monomial.  Generators must be weighted
    homogeneous.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    sig = gens[0].sig
    by_degree = {}
    for g in gens:
        if g.sig != sig:
            raise ValueError("generators live in different signatures")
        if not g.is_homogeneous():
            raise ValueError("generator %s is not homogeneous" % g)
        by_degree.setdefault(g.degree(), []).append(g.terms)
    n = len(sig)
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    echelon = {}  # degree -> fully reduced rows {pivot: {mono: coeff}}
    basis = []
    leads = []
    stop = max(by_degree)
    d = min(by_degree)
    while d <= stop:
        order = {m: k for k, m in enumerate(sorted(
            monomials_of_degree(sig, d), key=lambda m: grevlex_key(sig, m)))}
        rows = itertools.chain(
            (dict(terms) for terms in by_degree.get(d, ())),
            ({mono_mul(m, x): c for m, c in row.items()}
             for x, w in zip(units, sig.weights)
             for row in echelon.get(d - w, {}).values()))
        pivots = echelon[d] = _echelon(rows, order.__getitem__)
        for lead in sorted(pivots, key=order.__getitem__):
            if any(mono_divides(other, lead) for other in leads):
                continue
            for other in leads:
                if any(a and b for a, b in zip(other, lead)):
                    stop = max(stop, sig.wdeg(mono_lcm(other, lead)))
            leads.append(lead)
            basis.append(Poly(sig, pivots[lead]))
        d += 1
    return basis


def _echelon(rows, key):
    """Fully reduced echelon form of sparse rows: {pivot: monic row}.

    Consumes the rows (dicts mono -> coeff, reduced in place).  Each pivot
    is the row's largest monomial under `key`; after the back-substitution
    no row holds another row's pivot.
    """
    pivots = {}
    for row in rows:
        while row:
            lead = max(row, key=key)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = 1 / row[lead]
                pivots[lead] = {m: c * inv for m, c in row.items()}
                break
            _axpy(row, -row[lead], pivot)
    for lead in sorted(pivots, key=key):
        row = pivots[lead]
        for m in [m for m in row if m != lead and m in pivots]:
            _axpy(row, -row[m], pivots[m])
    return pivots


def _axpy(row, factor, other):
    """row += factor * other, dropping cancelled entries."""
    for m, c in other.items():
        v = row.get(m, 0) + factor * c
        if v:
            row[m] = v
        else:
            del row[m]


class GroebnerBasis:
    """A reduced Groebner basis with normal-form and Hilbert services."""

    def __init__(self, generators, precomputed: bool = False):
        gens = [g for g in generators if not g.is_zero()]
        if not gens:
            raise ValueError("need at least one nonzero generator")
        self.sig = gens[0].sig
        self.elements = list(gens) if precomputed else groebner_basis(gens)
        self.leads = [g.leading_monomial() for g in self.elements]

    def normal_form(self, p: Poly) -> Poly:
        if p.sig != self.sig:
            raise ValueError("polynomial signature does not match basis")
        return reduce_poly(p, self.elements)

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
