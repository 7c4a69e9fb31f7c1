"""Poly arithmetic against the dict-of-Fraction oracle in reference_poly.

Every operation of a Poly (+, -, unary -, *, **, scale, ==, hash,
evaluate, and str read back by parse_poly) and the normal form on `B` and
on `I` (a projective bundle over FB) must give what the oracle gives, term
by term, and leave the stored pair in lowest terms.  The draws include zero,
constants, and numerators and denominators up to 10^6.  The exact gate
still refuses floats and bools with TypeError, and two signatures still
do not mix (ValueError).  Equality never raises: a bool or a float
compares unequal to a Poly or a class, a constant hashes like the
number it equals, and equal objects hash equal (a class never equals a
raw Poly).

The example budget is hypothesis's own; `--hypothesis-profile=ci` (see
conftest.py) runs a larger, derandomized one.
"""

import random
from fractions import Fraction

import pytest

import reference_poly as ref
from chowcalc.poly import Poly, Signature, monomials_of_degree, parse_poly
from chowcalc.rings import catalog
from test_coefficients import is_stored_pair

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

SIG = Signature.make([("x", 1), ("y", 1), ("z", 2)])
ONE = (0, 0, 0)
BIG = 10 ** 6

rationals = st.one_of(
    st.integers(-BIG, BIG),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))


def term_dicts():
    """Zero, a constant, or up to five terms of exponents up to 3 in SIG."""
    monomials = st.tuples(*[st.integers(0, 3)] * len(SIG))
    return st.one_of(st.just({}), st.builds(lambda c: {ONE: c}, rationals),
                     st.dictionaries(monomials, rationals, max_size=5))


def pair(terms, sig=SIG):
    """The Poly of a term dict and the oracle's dict of it."""
    return Poly(sig, terms), ref.clean(terms)


def as_dict(p):
    assert is_stored_pair(p), p
    return {m: Fraction(c) for m, c in p.terms.items()}


@settings(deadline=None)
@given(term_dicts(), term_dicts())
def test_ring_operations_match_the_oracle(a, b):
    (p, ra), (q, rb) = pair(a), pair(b)
    assert as_dict(p) == ra
    assert as_dict(p + q) == ref.add(ra, rb)
    assert as_dict(p - q) == ref.add(ra, ref.neg(rb))
    assert as_dict(-p) == ref.neg(ra)
    assert as_dict(p * q) == ref.mul(ra, rb)


@settings(deadline=None)
@given(term_dicts(), st.integers(0, 4), rationals)
def test_powers_and_scalars_match_the_oracle(a, n, c):
    p, ra = pair(a)
    assert as_dict(p ** n) == ref.power(ra, n, ONE)
    assert as_dict(p.scale(c)) == ref.scale(ra, Fraction(c))
    assert as_dict(p * c) == as_dict(c * p) == ref.scale(ra, Fraction(c))
    assert as_dict(p + c) == ref.add(ra, ref.clean({ONE: c}))


@settings(deadline=None)
@given(term_dicts(), term_dicts(), rationals)
def test_equality_and_hash_match_the_oracle(a, b, c):
    (p, ra), (q, rb) = pair(a), pair(b)
    assert (p == q) == (ra == rb)
    assert p == Poly(SIG, dict(reversed(list(a.items()))))
    assert p * 1 == p and hash(p * 1) == hash(p)
    if p == q:
        assert hash(p) == hash(q)
    constant = Poly.constant(SIG, c)
    assert constant == c and c == constant and hash(constant) == hash(c)
    assert (p == c) == (ra == ref.clean({ONE: c}))


@settings(deadline=None)
@given(term_dicts(), st.tuples(rationals, rationals, rationals))
def test_evaluation_matches_the_oracle(a, point):
    p, ra = pair(a)
    value = p.evaluate(dict(zip(SIG.names, point)))
    assert value == ref.evaluate(ra, point)
    assert type(value) is int or value.denominator != 1


@settings(deadline=None)
@given(term_dicts())
def test_printing_reads_back(a):
    p, ra = pair(a)
    back = parse_poly(str(p), SIG)
    assert back == p and as_dict(back) == ra


def ring_terms(ring):
    """Term dicts of monomials of degree up to one past the ring's
    dimension, where forms with different denominators meet."""
    monomials = st.integers(0, ring.dim + 1).flatmap(
        lambda d: st.sampled_from(monomials_of_degree(ring.sig, d)))
    return st.dictionaries(monomials, rationals, max_size=5)


@pytest.mark.parametrize("name", ["B", "I"])
@settings(deadline=None)
@given(data=st.data())
def test_normal_form_matches_the_oracle(data, name):
    ring = catalog(name)
    p, ra = pair(data.draw(ring_terms(ring)), ring.sig)
    elements = [ref.clean(g.terms) for g in ring.gb]
    want = ref.remainder(ring.sig, ra, elements)
    assert as_dict(ring.normal_form(p)) == want
    assert as_dict(ring.normal_form(p)) == want  # warm: from the memo


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False])
def test_floats_and_bools_are_refused(bad):
    p = Poly(SIG, {(1, 0, 0): Fraction(1, 3), ONE: 2})
    ops = [lambda: Poly(SIG, {ONE: bad}), lambda: Poly.constant(SIG, bad),
           lambda: p.scale(bad), lambda: p ** bad,
           lambda: p.evaluate({"x": bad, "y": 1, "z": 1})]
    if type(bad) is bool:
        # arithmetic with a bool reaches the gate; with a float it finds
        # no method on either side
        ops += [lambda: p + bad, lambda: bad - p, lambda: p * bad]
    else:
        ops += [lambda: p + bad, lambda: bad * p, lambda: p - bad]
    for op in ops:
        with pytest.raises(TypeError):
            op()


def test_two_signatures_do_not_mix():
    other = Signature.make([("x", 1), ("y", 1), ("w", 2)])
    p, q = Poly.variable(SIG, "x"), Poly.variable(other, "x")
    for op in (lambda: p + q, lambda: p - q, lambda: p * q,
               lambda: catalog("B").normal_form(p)):
        with pytest.raises(ValueError):
            op()
    assert p != q


@pytest.mark.parametrize("bad", [True, False, 1.0, 0.0, 0.5])
def test_equality_with_a_bool_or_a_float_is_false(bad):
    one, zero = Poly.one(SIG), Poly.zero(SIG)
    ring = catalog("B")
    for x in (one, zero, ring.one(), ring.zero()):
        assert not x == bad and x != bad
        assert not bad == x and bad != x


@pytest.mark.parametrize("c", [0, 1, -3, Fraction(1, 2), Fraction(-7, 3)])
def test_a_constant_hashes_like_its_number(c):
    p = Poly.constant(SIG, c)
    ring = catalog("B")
    for x in (p, ring.const(c)):
        assert x == c and hash(x) == hash(c)
    assert len({c, p}) == 1 and len({c, ring.const(c)}) == 1
    assert hash(ring.var("h_3")) == hash(ring.var("h_3").rep)


def test_equal_objects_hash_equal():
    """a == b implies hash(a) == hash(b) on seeded classes of B, raw Polys
    (reduced or not), their normal forms and numbers: a class never equals
    a raw Poly, which it could only do after reducing it."""
    rng = random.Random(32)
    ring = catalog("B")
    values = [0, 1, -2, Fraction(1, 2), Fraction(-7, 3)]
    monos = [m for d in range(ring.dim + 2)
             for m in monomials_of_degree(ring.sig, d)]
    objects = list(values)
    objects += [Poly.constant(ring.sig, c) for c in values]
    objects += [ring.const(c) for c in values]
    for _ in range(40):
        terms = {m: Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                 for m in rng.sample(monos, rng.randint(1, 3))}
        p = Poly(ring.sig, terms)
        objects += [p, ring.cls(p), ring.cls(p).rep]
    p = parse_poly("3*h_3^2", ring.sig)
    x = ring.cls(p)
    objects += [p, x]
    assert x != p and p != x and len({x, p}) == 2
    for a in objects:
        for b in objects:
            if a == b:
                assert hash(a) == hash(b), (a, b)
