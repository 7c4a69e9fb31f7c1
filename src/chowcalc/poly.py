"""Sparse multivariate polynomials over Q, graded by per-variable weights.

Monomial order is graded reverse lexicographic, where "graded" means the
weighted degree (each variable carries a positive integer weight).

Coefficients are exact rationals stored integer-first: an `int` when the
value is integral and a `fractions.Fraction` only when it is not, so that
most arithmetic runs on ints rather than Fractions.

One gate for exact numbers, for the whole package: every number that enters
it (a coefficient, a matrix entry, a point to evaluate at) passes through
`coefficient`, which admits an int or a Fraction and refuses every other
type (floats, bools, strings, Decimals), and every count, degree or genus
through `as_int`; every division of two numbers is `exact_div`.  So no
float is ever turned into a binary fraction, no string is parsed into a
number, and `int / int` never makes one.  tests/test_exactness_lint.py
holds the rest of src/ to this.

A `Poly` is never changed once built (by convention: nothing writes to its
terms after `__init__`), so it finds its leading term once, on the first
`leading_term()` call, and keeps it: a normal form modulo a fixed basis
reads each divisor's lead without re-scanning its terms.
"""

from __future__ import annotations

import itertools
import operator
import re
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import inf
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
    """Sparse polynomial attached to a Signature, never changed once built."""

    __slots__ = ("sig", "terms", "_hash", "_lead")

    def __init__(self, sig: Signature, terms=None):
        self.sig = sig
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                if type(coeff) is not int:
                    coeff = coefficient(coeff)
                if coeff:
                    clean[tuple(mono)] = coeff
        self.terms = clean
        self._hash = None
        self._lead = None

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
        return cls(sig, {mono: 1})

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
            terms[mono] = terms.get(mono, 0) + c
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
        get = terms.get
        right = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                m = tuple(map(add, m1, m2))
                terms[m] = get(m, 0) + c1 * c2
        return Poly(self.sig, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = as_int(n)
        if n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if len(self.terms) == 1:
            (m, c), = self.terms.items()
            return Poly(self.sig, {tuple(e * n for e in m): c ** n})
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
            self._hash = hash((self.sig, frozenset(self.terms.items())))
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
        """(monomial, coefficient) of the grevlex-largest term.  Found on
        the first call and kept, since a Poly never changes; the zero
        polynomial has none and raises ValueError on every call."""
        if self._lead is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            mono = max(self.terms, key=lambda m: grevlex_key(self.sig, m))
            self._lead = (mono, self.terms[mono])
        return self._lead

    def leading_monomial(self) -> Monomial:
        return self.leading_term()[0]

    def constant_term(self) -> int | Fraction:
        return self.terms.get((0,) * len(self.sig), 0)

    def coefficient_of(self, name: str, power: int) -> "Poly":
        """Coefficient of name**power, as a polynomial in the same signature."""
        i = self.sig.index(name)
        terms = {}
        for m, c in self.terms.items():
            if m[i] == power:
                terms[tuple(0 if j == i else e for j, e in enumerate(m))] = c
        return Poly(self.sig, terms)

    def evaluate(self, values: dict) -> int | Fraction:
        """Full evaluation at a rational point given by {name: value}, each
        value admitted by `coefficient`; the result is in stored form."""
        vals = []
        for name in self.sig.names:
            if name not in values:
                raise KeyError("no value supplied for %r" % name)
            vals.append(coefficient(values[name]))
        total = 0
        for m, c in self.terms.items():
            prod = c
            for v, e in zip(vals, m):
                if e:
                    prod *= v ** e
            total += prod
        return coefficient(total)

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
    """What reduce_poly reads of a list of divisors: (leads, rows, bound).

    `leads` are the leading monomials of the nonzero divisors, in the order
    of the list.  `rows` is None when every nonzero divisor is a single term,
    else their (lead, lead coefficient, terms) rows in the same order.
    `bound` is sum((k_i - 1) * w_i) when every variable x_i has a pure power
    x_i^k_i among the leads (k_i the least such), else None: every monomial
    of a larger weighted degree has some exponent e_i >= k_i, so a lead
    divides it.  A basis builds the table once.
    """
    divisors = [d for d in divisors if not d.is_zero()]
    leads = [d.leading_monomial() for d in divisors]
    rows = None
    if any(len(d.terms) > 1 for d in divisors):
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
_ZERO = object()  # reduce_poly's mark for a monomial whose normal form is 0


def reduce_poly(p: Poly, divisors, table=None, found=None,
                vanish=None) -> Poly:
    """Full normal form of p modulo the list of divisors.

    Every monomial of the result is divisible by no leading monomial of the
    divisors.  Deterministic: always cancels the largest reducible monomial,
    by the first divisor whose lead divides it.  `table`, when given, is
    division_table(divisors), which a fixed basis builds once instead of
    once per call.  `found`, when given, is a dict that belongs to this one
    list of divisors and outlives the call: it maps a monomial to the
    position of the first divisor whose lead divides it, or to None, and is
    filled the first time a monomial is met, for monomials of weighted
    degree at most the table's bound (none when the bound is None), so it
    holds finitely many.  Which divisor cancels a monomial depends only on
    the monomial and the list, so the result is the same with a table and
    a lookup and without them.

    `vanish`, when given, is a weighted degree from which the quotient by
    the divisors is zero, for a list that is a Groebner basis of a
    homogeneous ideal (GroebnerBasis.vanish).  A monomial of degree at
    least `vanish` is then dropped where the lookup misses, undivided, and
    kept in no lookup: its degree holds no standard monomial, and dividing
    a monomial by a homogeneous basis only makes monomials of its own
    degree, so its normal form is 0 and the remainder is the same.

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
    leads, rows, bound = division_table(divisors) if table is None else table
    sig = p.sig
    weights = sig.weights
    if found is None:
        found, limit = {}, inf  # this call's own lookup: it keeps everything
    else:
        limit = -1 if bound is None else bound
    if vanish is None:
        vanish = inf
    get = found.get

    def first(mono):
        """Position of the first divisor whose lead divides mono, None when
        none does, or _ZERO when mono's degree is at least `vanish`."""
        k = get(mono, _UNSEEN)
        if k is not _UNSEEN:
            return k
        degree = sum(map(mul, weights, mono))
        if degree >= vanish:
            return _ZERO
        for k, lead in enumerate(leads):
            if mono_divides(lead, mono):
                break
        else:
            k = None
        if degree <= limit:
            found[mono] = k
        return k

    # a Poly has no zero coefficient, so p is standard when no term reduces;
    # the loops read the lookup inline and call first() only on a miss
    for mono in p.terms:
        k = get(mono, _UNSEEN)
        if k is _UNSEEN:
            k = first(mono)
        if k is not None:
            break
    else:
        return p
    if rows is None:
        return Poly(sig, {m: c for m, c in p.terms.items()
                          if first(m) is None})
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
        if k is _ZERO:
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
        by_degree.setdefault(g.degree(), []).append(g.terms)
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
            basis.append(Poly(sig, pivots[lead]))
        full = full + 1 if len(pivots) == len(order) else 0
        if d >= last and full >= width:
            return basis, d - full + 1
        d += 1
    return basis, None


def _echelon(rows, key):
    """Fully reduced echelon form of sparse rows: {pivot: monic row}.

    Consumes the rows (dicts mono -> coeff in stored form, reduced in
    place); every entry it stores stays in stored form.  Each pivot
    is the row's largest monomial under `key`; after the back-substitution
    no row holds another row's pivot.
    """
    pivots = {}
    for row in rows:
        while row:
            lead = max(row, key=key)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = exact_div(1, row[lead])
                pivots[lead] = {m: coefficient(c * inv)
                                for m, c in row.items()}
                break
            _axpy(row, -row[lead], pivot)
    for lead in sorted(pivots, key=key):
        row = pivots[lead]
        for m in [m for m in row if m != lead and m in pivots]:
            _axpy(row, -row[m], pivots[m])
    return pivots


def _axpy(row, factor, other):
    """row += factor * other, dropping cancelled entries; entries are
    kept in stored form (see `coefficient`)."""
    for m, c in other.items():
        v = row.get(m, 0) + factor * c
        if type(v) is not int:
            v = coefficient(v)
        if v:
            row[m] = v
        else:
            del row[m]


class GroebnerBasis:
    """A reduced Groebner basis with normal-form and Hilbert services.

    The normal form of a polynomial modulo a Groebner basis is unique, so
    it may be found in two ways, and `normal_form` is the one entry point
    for both.  A presented basis divides: reduce_poly runs with the
    division table `table`, built once, and the lookup `found` (monomial
    -> position of the first element whose lead divides it, or None), kept
    across normal forms up to the table's pure-power bound, so a warm basis
    decides each monomial once.

    A derived basis (made by `derived`: a product's, a projective bundle's
    or a blow-up's, in rings.py) divides nothing.  Its `rule` gives the
    normal form of one monomial from the normal forms of the ring it is
    built on, and a normal form is the sum of its monomials' forms:
      - blow-up: NF(m e^k) = NF_base(m) e^k, since no lead involves e;
      - product: NF(m_a m_b) = NF_A(m_a) NF_B(m_b), since each lead lies
        in one factor's variables;
      - projective bundle of rank r: NF(zeta^k m) = sum over j < r of
        zeta^j NF_base(s_kj m), where zeta^k = sum_j zeta^j s_kj modulo
        the tautological relation, extended one power at a time.
    It reads no division table: `table` is built only when asked for.

    A presented basis also records `vanish`, a weighted degree from which
    its quotient is zero: where the run of full degrees that stopped
    groebner_basis early starts (B 5, G26 9, P5 6); failing that, the
    table's pure-power bound + 1, past which a lead divides every monomial
    (Gw36 7, P1^4 5); else None, and always None for a derived basis.
    reduce_poly drops each monomial of degree at least `vanish` undivided,
    and neither `found` nor `forms` keeps one.

    Both kinds keep `forms`: monomial -> the terms of its normal form, or
    None when it is standard.  `limit` bounds the weighted degree of what
    is kept: the ring's dimension for a derived basis, the table's
    pure-power bound for a presented one, and below `vanish` (nothing when
    there is no bound, the same rule as `found`), so each holds finitely
    many monomials.
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
        self.found = {}
        self.forms = {}
        self.rule = None

    @classmethod
    def derived(cls, elements, rule, limit: int) -> "GroebnerBasis":
        """A basis of already reduced elements, sorted here by ascending
        leading monomial, whose monomials take their normal forms from
        `rule` (monomial -> terms of its normal form, or None when it is
        standard); `forms` keeps those of weighted degree at most `limit`."""
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

    @cached_property
    def limit(self):
        """Largest weighted degree kept in `forms`; see the class docstring."""
        bound = self.table[2]
        if bound is None:
            return -1
        return bound if self.vanish is None else min(bound, self.vanish - 1)

    def normal_form(self, p: Poly) -> Poly:
        """p reduced modulo the basis; p itself when it is standard.  A
        derived basis sums the forms of p's monomials."""
        if p.sig != self.sig:
            raise ValueError("polynomial signature does not match basis")
        if self.rule is None:
            return reduce_poly(p, self.elements, self.table, self.found,
                               self.vanish)
        get, form = self.forms.get, self.form
        forms = []
        for m in p.terms:
            f = get(m, _UNSEEN)
            forms.append(form(m) if f is _UNSEEN else f)
        if forms.count(None) == len(forms):
            return p
        out = {}
        for (m, c), f in zip(p.terms.items(), forms):
            if f is None:
                out[m] = out.get(m, 0) + c
            else:
                for m2, c2 in f.items():
                    out[m2] = out.get(m2, 0) + c * c2
        return Poly(self.sig, out)

    def form(self, mono: Monomial):
        """The terms of mono's normal form, or None when mono is standard;
        kept in `forms` when mono's weighted degree is at most `limit`."""
        f = self.forms.get(mono, _UNSEEN)
        if f is not _UNSEEN:
            return f
        if self.rule is None:
            p = Poly(self.sig, {mono: 1})
            nf = reduce_poly(p, self.elements, self.table, self.found,
                             self.vanish)
            f = None if nf is p else nf.terms
        else:
            f = self.rule(mono)
        if sum(map(mul, self.sig.weights, mono)) <= self.limit:
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
