"""`checks._random_poly` builds each term from an exponent tuple.

It must make the same random draws in the same order as the builder it
replaced (kept below), which multiplied a constant by one variable at a
time, so the property suites test the same instances: for many seeds, on
the two signatures the suites use, both builders give equal Polys and
leave the generator in the same state.
"""

import random
from fractions import Fraction

import pytest

from chowcalc import checks
from chowcalc.poly import Poly, Signature
from chowcalc.rings import catalog


def product_builder(rng, sig, max_deg=3):
    """The former checks._random_poly, one Poly product per variable."""
    p = Poly.zero(sig)
    names = sig.names
    for _ in range(rng.randint(1, 4)):
        term = Poly.constant(sig, Fraction(rng.randint(-9, 9),
                                           rng.randint(1, 4)))
        for _ in range(rng.randint(0, max_deg)):
            term = term * Poly.variable(sig, rng.choice(names))
        p = p + term
    return p


SIGNATURES = {"ring-axioms": Signature.make([("x", 1), ("y", 1), ("z", 2)]),
              "normal-form": catalog("B").sig}


@pytest.mark.parametrize("name", list(SIGNATURES))
@pytest.mark.parametrize("max_deg", [None, 3, 4])
def test_same_polys_and_same_draws(name, max_deg):
    sig = SIGNATURES[name]
    extra = () if max_deg is None else (max_deg,)
    for seed in range(300):
        old, new = random.Random(seed), random.Random(seed)
        for _ in range(5):
            want = product_builder(old, sig, *extra)
            got = checks._random_poly(new, sig, *extra)
            assert got == want, seed
            assert got.terms == want.terms
        assert new.getstate() == old.getstate(), seed
