"""Sparse multivariate polynomials over Q, graded by per-variable weights.

Monomial order is graded reverse lexicographic, where "graded" means the
weighted degree (each variable carries a positive integer weight).

A Poly stores its coefficients as integer numerators over one positive
denominator (the content/primitive-part form of FLINT's fmpq_poly),
normalized so that no factor is common to the denominator and every
numerator.  Equal polynomials then have equal pairs, so equality and
hashing stay structural, and sums, products and normal forms run on ints:
a product multiplies the denominators and divides out one gcd, where a
Fraction per term would take a gcd per term.  The `terms` view gives each
coefficient in stored form: an `int` when it is integral and a
`fractions.Fraction` (whose denominator is then not 1) when it is not.
Sparse row reduction (`_echelon`, for Groebner bases and linalg) is
fraction-free on integer rows in the same way.

One gate for exact numbers, for the whole package: every number that enters
it (a coefficient, a matrix entry, a point to evaluate at) passes through
`coefficient`, which admits an int or a Fraction and refuses every other
type (floats, bools, strings, Decimals), and every count, degree or genus
through `as_int`; every division of two numbers is `exact_div`.  So no
float is ever turned into a binary fraction, no string is parsed into a
number, and `int / int` never makes one.  tests/test_exactness_lint.py
holds the rest of src/ to this.

A `Poly` is never changed once built (by convention: nothing writes to its
numerators or terms after `__init__`), so it finds its leading term once,
on the first `leading_term()` call, and keeps it: a normal form modulo a
fixed basis reads each divisor's lead without re-scanning its terms.
"""

from __future__ import annotations

import itertools
import operator
import re
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, mul, neg, sub
from typing import Iterator

Monomial = tuple  # tuple[int, ...], exponents in signature order


class Signature:
    """Ordered variable names with positive integer weights, never changed
    once built.  Equal when names and weights are, hashed by both."""

    __slots__ = ("names", "weights")

    def __init__(self, names: tuple, weights: tuple):
        if len(names) != len(weights):
            raise ValueError("names and weights must have equal length")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable name in signature")
        for name in names:
            if not _IDENT_RE.fullmatch(name):
                raise ValueError("invalid variable name: %r" % (name,))
        for w in weights:
            if as_int(w) <= 0:
                raise ValueError("weights must be positive integers")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "weights", weights)

    def __setattr__(self, name, value):
        raise AttributeError("a Signature is never changed once built")

    def __delattr__(self, name):
        raise AttributeError("a Signature is never changed once built")

    def __reduce__(self):  # copy and pickle rebuild it through __init__
        return Signature, (self.names, self.weights)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Signature:
            return NotImplemented
        return self.names == other.names and self.weights == other.weights

    def __hash__(self):
        return hash((self.names, self.weights))

    def __repr__(self):
        return "Signature(names=%r, weights=%r)" % (self.names, self.weights)

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
        return sum(map(mul, self.weights, mono))


def coefficient(c):
    """An exact rational in stored form: an int when it is integral, else a
    Fraction (whose denominator is then never 1).  Only an int or a Fraction
    is admitted: a float, a bool, a string, a Decimal or any other type is
    refused, rather than parsed or converted into a number."""
    t = type(c)
    if t is int:
        return c
    if t is not Fraction:
        raise TypeError("coefficients must be exact rationals (int or "
                        "Fraction), not %s" % t.__name__)
    return c.numerator if c.denominator == 1 else c


def exact_div(a, b):
    """a / b for exact rationals, in stored form (see `coefficient`).  Both
    operands pass `coefficient` first, so a float or a bool is refused
    whatever the other one is; past the int case one of them is a Fraction,
    so `/` stays exact."""
    a, b = coefficient(a), coefficient(b)
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
        return Fraction(a, b)
    return coefficient(a / b)


def as_int(x) -> int:
    """An exact integer; floats, bools and other non-integers are refused."""
    if isinstance(x, (float, bool)):
        raise TypeError("expected an integer, not %s" % type(x).__name__)
    return operator.index(x)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True if a | b."""
    return all(map(le, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def grevlex_key(sig: Signature, mono: Monomial):
    """Sort key: larger key = larger monomial in weighted grevlex.

    Ties in weighted degree break reverse-lexicographically: the monomial
    with the smaller exponent on the last differing variable is larger.
    """
    return (sum(map(mul, sig.weights, mono)), tuple(map(neg, reversed(mono))))


class Poly:
    """Sparse polynomial attached to a Signature, never changed once built:
    integer numerators `num` ({monomial: nonzero int}) over one denominator
    `den` > 0, with no factor common to `den` and every numerator, so that
    equal polynomials have equal pairs."""

    __slots__ = ("sig", "num", "den", "_terms", "_hash", "_lead")

    def __init__(self, sig: Signature, terms=None, den=None):
        """`terms` maps monomials to coefficients, each admitted by
        `coefficient`; zeros are dropped.  With `den` given (by this
        package only), `terms` are already nonzero int numerators over the
        positive int `den`, and only their common factor is divided out."""
        self.sig = sig
        if den is None:
            terms, den = _cleared(terms or {})
        elif den != 1:
            terms, den = _reduced(terms, den)
        self.num = terms
        self.den = den
        self._terms = self._hash = self._lead = None

    @property
    def terms(self) -> dict:
        """{monomial: coefficient}, each in stored form (see `coefficient`):
        the numerators themselves when the denominator is 1, else built on
        the first read and kept.  Read-only, like the Poly."""
        if self.den == 1:
            return self.num
        if self._terms is None:
            den = self.den
            self._terms = {m: exact_div(c, den) for m, c in self.num.items()}
        return self._terms

    # construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature) -> "Poly":
        return cls(sig, {}, 1)

    @classmethod
    def constant(cls, sig: Signature, c) -> "Poly":
        c = coefficient(c)
        return cls(sig, {(0,) * len(sig): c.numerator} if c else {},
                   c.denominator)

    @classmethod
    def one(cls, sig: Signature) -> "Poly":
        return cls.constant(sig, 1)

    @classmethod
    def variable(cls, sig: Signature, name: str) -> "Poly":
        i = sig.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(sig)))
        return cls(sig, {mono: 1}, 1)

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
        a, b = self, other
        if len(a.num) < len(b.num):
            a, b = b, a
        g = gcd(a.den, b.den)
        ka, kb = b.den // g, a.den // g
        num = dict(a.num) if ka == 1 else {m: c * ka
                                           for m, c in a.num.items()}
        get = num.get
        for m, c in b.num.items():
            v = get(m, 0) + c * kb
            if v:
                num[m] = v
            else:
                del num[m]
        return Poly(self.sig, num, a.den * ka)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.sig, {m: -c for m, c in self.num.items()}, self.den)

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
        get = terms.get
        right = other.num.items()
        for m1, c1 in self.num.items():
            for m2, c2 in right:
                m = tuple(map(add, m1, m2))
                terms[m] = get(m, 0) + c1 * c2
        return Poly(self.sig, _nonzero(terms), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = as_int(n)
        if n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if len(self.num) == 1:
            (m, c), = self.num.items()
            return Poly(self.sig, {tuple(e * n for e in m): c ** n},
                        self.den ** n)
        result = Poly.one(self.sig)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c) -> "Poly":
        c = coefficient(c)
        if not c:
            return Poly(self.sig)
        n = c.numerator  # an int's numerator and denominator are c and 1
        return Poly(self.sig, {m: n * k for m, k in self.num.items()},
                    self.den * c.denominator)

    # predicates and parts -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        # only an int or a Fraction is a number here: a bool or a float
        # compares unequal rather than being refused
        if type(other) is int or type(other) is Fraction:
            other = Poly.constant(self.sig, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        return (self.sig == other.sig and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        # a constant equals its number, so it hashes like it
        if self._hash is None:
            num = self.num
            if not num or (len(num) == 1 and not any(next(iter(num)))):
                self._hash = hash(self.constant_term())
            else:
                self._hash = hash((self.sig, self.den,
                                   frozenset(num.items())))
        return self._hash

    def degree(self) -> int:
        """Maximal weighted degree; -1 for the zero polynomial."""
        if not self.num:
            return -1
        return max(map(self.sig.wdeg, self.num))

    def is_homogeneous(self) -> bool:
        degs = set(map(self.sig.wdeg, self.num))
        return len(degs) <= 1

    def homogeneous_part(self, d: int) -> "Poly":
        wdeg = self.sig.wdeg
        return Poly(self.sig, {m: c for m, c in self.num.items()
                               if wdeg(m) == d}, self.den)

    def sorted_terms(self):
        """Terms in descending monomial order."""
        key = lambda item: grevlex_key(self.sig, item[0])
        return sorted(self.terms.items(), key=key, reverse=True)

    def leading_term(self):
        """(monomial, coefficient) of the grevlex-largest term.  Found on
        the first call and kept, since a Poly never changes; the zero
        polynomial has none and raises ValueError on every call."""
        if self._lead is None:
            if not self.num:
                raise ValueError("zero polynomial has no leading term")
            mono = max(self.num, key=lambda m: grevlex_key(self.sig, m))
            self._lead = (mono, exact_div(self.num[mono], self.den))
        return self._lead

    def leading_monomial(self) -> Monomial:
        return self.leading_term()[0]

    def constant_term(self) -> int | Fraction:
        return exact_div(self.num.get((0,) * len(self.sig), 0), self.den)

    def coefficient_of(self, name: str, power: int) -> "Poly":
        """Coefficient of name**power, as a polynomial in the same signature."""
        i = self.sig.index(name)
        terms = {}
        for m, c in self.num.items():
            if m[i] == power:
                terms[tuple(0 if j == i else e for j, e in enumerate(m))] = c
        return Poly(self.sig, terms, self.den)

    def evaluate(self, values: dict) -> int | Fraction:
        """Full evaluation at a rational point given by {name: value}, each
        value admitted by `coefficient`; the result is in stored form."""
        vals = []
        for name in self.sig.names:
            if name not in values:
                raise KeyError("no value supplied for %r" % name)
            vals.append(coefficient(values[name]))
        total = 0
        for m, c in self.num.items():
            prod = c
            for v, e in zip(vals, m):
                if e:
                    prod *= v ** e
            total += prod
        return exact_div(total, self.den)

    # printing -------------------------------------------------------------

    def __str__(self):
        if not self.num:
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


def _cleared(terms: dict):
    """(num, den) of {monomial: coefficient}: each coefficient admitted by
    `coefficient`, zeros dropped, times den, the lcm of the denominators.
    No factor is then common to den and every numerator."""
    num = {}
    den = 1
    for mono, c in terms.items():
        if type(c) is not int:
            c = coefficient(c)
            if type(c) is not int:
                den = lcm(den, c.denominator)
        if c:
            num[mono] = c
    if den != 1:
        num = {m: c * den if type(c) is int
               else c.numerator * (den // c.denominator)
               for m, c in num.items()}
    return num, den


def _reduced(num: dict, den: int):
    """(num, den) with the factor common to den and every numerator
    divided out."""
    g = gcd(den, *num.values())
    if g == 1:
        return num, den
    return {m: c // g for m, c in num.items()}, den // g


def _nonzero(num: dict) -> dict:
    """num without its zero entries (a sum of products may cancel)."""
    if 0 in num.values():
        return {m: c for m, c in num.items() if c}
    return num


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


# Largest exponent parse_poly accepts after ^: far above the dimension of
# any ring here, and small enough that one power cannot stall the parser.
MAX_EXPONENT = 100

# Most digits parse_poly accepts in a numerator or denominator literal
# (leading zeros aside): below the 4300 digits that int() converts by default.
MAX_DIGITS = 4000


def parse_poly(text: str, sig: Signature) -> Poly:
    """Parse the wire grammar: + - * ^, integer and p/q literals, parens.

    ^ binds tightest and takes a nonnegative integer exponent of at most
    MAX_EXPONENT; unary minus binds loosest (applies to a whole product).
    A literal has at most MAX_DIGITS digits.
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
        digits = value.lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise ParseError("exponent above the cap %d" % MAX_EXPONENT, pos)
        base = base ** int(digits)
    return base


def _literal(value: str, pos: int) -> int:
    digits = value.lstrip("0") or "0"
    if len(digits) > MAX_DIGITS:
        raise ParseError("integer literal longer than %d digits" % MAX_DIGITS,
                         pos)
    return int(digits)


def _parse_atom(toks: _Tokens, sig: Signature) -> Poly:
    kind, value, pos = toks.next()
    if kind == "int":
        num = _literal(value, pos)
        kind2, value2, _ = toks.peek()
        if kind2 == "op" and value2 == "/":
            toks.next()
            kind3, value3, pos3 = toks.next()
            if kind3 != "int":
                raise ParseError("denominator must be an integer literal", pos3)
            den = _literal(value3, pos3)
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


def division_table(divisors):
    """A list of divisors as reduce_poly reads it: (leads, rows, bound).

    `leads` are the leading monomials of the nonzero divisors, in the order
    of the list.  `rows` is None when every nonzero divisor is a single term,
    else their (lead, lead coefficient, terms) rows in the same order.
    `bound` is sum((k_i - 1) * w_i) when every variable x_i has a pure power
    x_i^k_i among the leads (k_i the least such), else None: every monomial
    of a larger weighted degree has some exponent e_i >= k_i, so a lead
    divides it (GroebnerBasis reads it for `vanish`).  A basis builds the
    table once.
    """
    divisors = [d for d in divisors if not d.is_zero()]
    leads = [d.leading_monomial() for d in divisors]
    rows = None
    if any(len(d.num) > 1 for d in divisors):
        rows = [d.leading_term() + (d.terms,) for d in divisors]
    powers = {}
    for lead in leads:
        support = [i for i, e in enumerate(lead) if e]
        if len(support) == 1:
            i = support[0]
            powers[i] = min(lead[i], powers.get(i, lead[i]))
    bound = None
    if leads and len(powers) == len(divisors[0].sig):
        bound = sum((powers[i] - 1) * w
                    for i, w in enumerate(divisors[0].sig.weights))
    return leads, rows, bound


_UNSEEN = object()
_VANISHED = ({}, 1)  # the (num, den) pair of the zero polynomial


def reduce_poly(p: Poly, divisors, table=None) -> Poly:
    """Full normal form of p modulo the list of divisors.

    Every monomial of the result is divisible by no leading monomial of the
    divisors.  Deterministic: always cancels the largest reducible monomial,
    by the first divisor whose lead divides it.  `table`, when given, is
    division_table(divisors), which a fixed basis builds once instead of
    once per call.  Within one call, the first divisor of each monomial is
    looked up once; nothing is kept across calls (a GroebnerBasis keeps
    each monomial's normal form instead).

    When no monomial of p is reducible, p itself is returned (a Poly is
    never changed once built).  When every divisor is a single term, the
    remainder is the terms of p that no divisor divides, read off without
    the division loop.  It is the loop's own answer for any such list,
    Groebner basis or not: cancelling a term by a monomial deletes that
    term and adds no other, so the loop only ever drops the divisible terms
    of p and keeps the rest.

    Otherwise the pending terms sit in a dict and their monomials in a heap
    keyed by (-weighted degree, reversed exponents), whose smallest key is
    the grevlex-largest monomial; each key is built once, when its monomial
    first enters the dict (Monagan-Pearce).  A reduction step only adds
    monomials smaller than the one it cancels, so no popped monomial comes
    back, and a monomial whose pending coefficient cancels to 0 stays in
    both until popped.
    """
    leads, rows, _ = division_table(divisors) if table is None else table
    sig = p.sig
    weights = sig.weights
    found = {}
    get = found.get

    def first(mono):
        """Position of the first divisor whose lead divides mono, or None
        when none does."""
        for k, lead in enumerate(leads):
            if mono_divides(lead, mono):
                break
        else:
            k = None
        found[mono] = k
        return k

    # a Poly has no zero coefficient, so p is standard when no term reduces;
    # the loops read the lookup inline and call first() only on a miss
    for mono in p.num:
        k = get(mono, _UNSEEN)
        if k is _UNSEEN:
            k = first(mono)
        if k is not None:
            break
    else:
        return p
    if rows is None:
        return Poly(sig, {m: c for m, c in p.num.items()
                          if first(m) is None}, p.den)
    remainder = {}
    work = dict(p.terms)
    heap = [(-sum(map(mul, weights, m)), m[::-1], m) for m in work]
    heapify(heap)
    while heap:
        mono = heappop(heap)[2]
        coeff = work.pop(mono)
        if not coeff:
            continue
        k = get(mono, _UNSEEN)
        if k is _UNSEEN:
            k = first(mono)
        if k is None:
            remainder[mono] = coeff
            continue
        lead, lc, terms = rows[k]
        shift = mono_div(mono, lead)
        factor = -coeff if lc == 1 else exact_div(-coeff, lc)
        for m2, c2 in terms.items():
            if m2 == lead:
                continue
            m = tuple(map(add, m2, shift))
            old = work.get(m)
            if old is None:
                work[m] = factor * c2
                key = -sum(map(mul, weights, m))
                heappush(heap, (key, m[::-1], m))
            else:
                work[m] = old + factor * c2
    return Poly(sig, remainder)


def s_polynomial(f: Poly, g: Poly) -> Poly:
    lf, cf = f.leading_term()
    lg, cg = g.leading_term()
    lcm = mono_lcm(lf, lg)
    mf = Poly(f.sig, {mono_div(lcm, lf): exact_div(1, cf)})
    mg = Poly(g.sig, {mono_div(lcm, lg): exact_div(1, cg)})
    return mf * f - mg * g


def groebner_basis(generators):
    """Reduced Groebner basis of a homogeneous ideal, one degree at a time.

    The degree-d piece I_d is spanned by the degree-d generators and by
    x_i times the echelon rows of I_(d - w_i); its fully reduced echelon
    form, with pivots at grevlex-largest monomials, has one row lead - NF(lead)
    per lead monomial of degree d.  A lead that no earlier lead divides gives
    a basis element.  Once d is past every generator degree and every lcm
    degree of two non-coprime leads, each S-polynomial has reduced to zero
    (Buchberger's criterion), so the basis is complete.  It is complete
    sooner when d is past every generator degree and I holds every monomial
    of degrees d - W + 1, ..., d, W the largest weight: a monomial of a
    higher degree is x_i times one of a lower degree, so by induction a lead
    divides it, and no lead and no basis element can follow.  Output is
    monic, sorted by ascending leading monomial.  Generators must be
    weighted homogeneous.
    """
    return _groebner(generators)[0]


def _groebner(generators):
    """groebner_basis's basis, and the degree at which the run of full
    degrees that stopped it early starts (None when it ran to Buchberger's
    criterion): the quotient is zero in that degree and every later one."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return [], None
    sig = gens[0].sig
    by_degree = {}
    for g in gens:
        if g.sig != sig:
            raise ValueError("generators live in different signatures")
        if not g.is_homogeneous():
            raise ValueError("generator %s is not homogeneous" % g)
        by_degree.setdefault(g.degree(), []).append(g.num)
    n = len(sig)
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    echelon = {}  # degree -> fully reduced rows {pivot: {mono: coeff}}
    basis = []
    leads = []
    last = stop = max(by_degree)
    width = max(sig.weights)
    full = 0  # consecutive degrees, up to d, in which I_d is every monomial
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
            basis.append(Poly(sig, pivots[lead], pivots[lead][lead]))
        full = full + 1 if len(pivots) == len(order) else 0
        if d >= last and full >= width:
            return basis, d - full + 1
        d += 1
    return basis, None


def _echelon(rows, key):
    """Fully reduced echelon form of sparse integer rows: {pivot: row}.

    Consumes the rows (dicts mono -> int, reduced in place).  Each pivot is
    the row's largest monomial under `key`, and each row it stores is
    primitive (no factor common to its entries) with a positive pivot
    entry, so row / row[pivot] is the monic row over Q; after the
    back-substitution no row holds another row's pivot.  Elimination is
    fraction-free: every entry stays an int.
    """
    pivots = {}
    for row in rows:
        while row:
            lead = max(row, key=key)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = _primitive(row, lead)
                break
            _eliminate(row, lead, pivot)
    for lead in sorted(pivots, key=key):
        row = pivots[lead]
        hits = [m for m in row if m != lead and m in pivots]
        for m in hits:
            _eliminate(row, m, pivots[m])
        if hits:
            pivots[lead] = _primitive(row, lead)
    return pivots


def _eliminate(row, m, pivot):
    """Clear row's entry at m, pivot's own pivot: row = (p / g) row -
    (r / g) pivot, for p and r the entries at m and g = gcd(p, r) > 0."""
    p, r = pivot[m], row[m]
    g = gcd(p, r)
    if g != p:
        k = p // g
        for x, c in row.items():
            row[x] = c * k
    _axpy(row, -(r // g), pivot)


def _primitive(row, lead):
    """row divided by the gcd of its entries, signed so that row[lead] > 0."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return row if g == 1 else {m: c // g for m, c in row.items()}


def _axpy(row, factor, other):
    """row += factor * other, on int entries, dropping cancelled ones."""
    get = row.get
    for m, c in other.items():
        v = get(m, 0) + factor * c
        if v:
            row[m] = v
        else:
            del row[m]


class GroebnerBasis:
    """A reduced Groebner basis with normal-form and Hilbert services.

    The normal form of a polynomial modulo a Groebner basis is unique and
    linear, so `normal_form` sums the normal forms of p's monomials, and
    `form` finds each monomial's by the basis' `rule`: monomial -> its
    normal form as a Poly's (num, den) pair, or None when it is standard;
    `normal_form` brings the pairs to one denominator, their lcm, and adds
    integers.  Both kinds of basis keep these in `forms`, for monomials of
    weighted degree at most `limit`, so a warm basis finds each kept
    monomial's form once.

    A presented basis's rule is its own `_divide`: reduce_poly of the one
    monomial, with the division table `table`, built once.  It also
    records `vanish`, a weighted degree from which its quotient is zero:
    where the run of full degrees that stopped groebner_basis early starts
    (B 5, G26 9, P5 6); failing that, the table's pure-power bound + 1,
    past which a lead divides every monomial (Gw36 7, P1^4 5); else None.
    A monomial of degree at least `vanish` has form ({}, 1), since its
    degree holds no standard monomial and division by a homogeneous basis
    stays in one degree; it is neither divided nor kept.  Every degree
    above the pure-power bound is zero, so vanish - 1 is at most that
    bound, and `limit` is vanish - 1 (-1, so nothing is kept, when
    `vanish` is None).

    A derived basis (made by `derived`: a product's, a projective bundle's
    or a blow-up's, in rings.py) divides nothing.  Its rule gives the
    normal form of one monomial from the normal forms of the ring it is
    built on:
      - blow-up: NF(m e^k) = NF_base(m) e^k, since no lead involves e;
      - product: NF(m_a m_b) = NF_A(m_a) NF_B(m_b), since each lead lies
        in one factor's variables;
      - projective bundle of rank r: NF(zeta^k m) = sum over j < r of
        zeta^j NF_base(s_kj m), where zeta^k = sum_j zeta^j s_kj modulo
        the tautological relation, extended one power at a time.
    Its `limit` is the ring's dimension and its `vanish` None, and it reads
    no division table: `table` is built only when asked for.
    """

    def __init__(self, generators, precomputed: bool = False):
        gens = [g for g in generators if not g.is_zero()]
        if not gens:
            raise ValueError("need at least one nonzero generator")
        self.sig = gens[0].sig
        if precomputed:
            self.elements, self.vanish = list(gens), None
        else:
            self.elements, self.vanish = _groebner(gens)
            if self.vanish is None and self.table[2] is not None:
                self.vanish = self.table[2] + 1
        self.leads = [g.leading_monomial() for g in self.elements]
        self.forms = {}
        self.rule = self._divide
        self.limit = -1 if self.vanish is None else self.vanish - 1

    @classmethod
    def derived(cls, elements, rule, limit: int) -> "GroebnerBasis":
        """A basis of already reduced elements, sorted here by ascending
        leading monomial, whose monomials take their normal forms from
        `rule` (monomial -> (num, den) of its normal form, or None when it
        is standard); `forms` keeps those of weighted degree at most
        `limit`."""
        elements = sorted(elements, key=lambda p: grevlex_key(
            p.sig, p.leading_monomial()))
        gb = cls(elements, True)
        gb.rule = rule
        gb.limit = limit
        return gb

    @cached_property
    def table(self):
        """reduce_poly's division table for the elements, built once."""
        return division_table(self.elements)

    def _divide(self, mono: Monomial):
        """A presented basis's rule: mono's form by division."""
        p = Poly(self.sig, {mono: 1}, 1)
        nf = reduce_poly(p, self.elements, self.table)
        return None if nf is p else (nf.num, nf.den)

    def normal_form(self, p: Poly) -> Poly:
        """p reduced modulo the basis, the sum of its monomials' forms; p
        itself when it is standard."""
        if p.sig != self.sig:
            raise ValueError("polynomial signature does not match basis")
        get, form = self.forms.get, self.form
        forms = []
        for m in p.num:
            f = get(m, _UNSEEN)
            forms.append(form(m) if f is _UNSEEN else f)
        if forms.count(None) == len(forms):
            return p
        den = lcm(*[f[1] for f in forms if f is not None])
        out = {}
        old = out.get
        for (m, c), f in zip(p.num.items(), forms):
            if f is None:
                out[m] = old(m, 0) + c * den
            else:
                num, d = f
                if d != den:
                    c *= den // d
                for m2, c2 in num.items():
                    out[m2] = old(m2, 0) + c * c2
        return Poly(self.sig, _nonzero(out), p.den * den)

    def form(self, mono: Monomial):
        """mono's normal form as a (num, den) pair, or None when mono is
        standard; ({}, 1) from `vanish` on, and kept in `forms` up to
        `limit`."""
        f = self.forms.get(mono, _UNSEEN)
        if f is not _UNSEEN:
            return f
        degree = sum(map(mul, self.sig.weights, mono))
        if self.vanish is not None and degree >= self.vanish:
            return _VANISHED
        f = self.rule(mono)
        if degree <= self.limit:
            self.forms[mono] = f
        return f

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
