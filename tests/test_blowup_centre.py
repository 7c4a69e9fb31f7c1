"""`blowup-consistency` solves for the centre of the blow-up model of F_B.

The check reads the four integrals alpha^2 . alpha_i (i = 1, 2, 3) and
alpha^3, alpha = h - e, of the blow-up of P1^3 along a tri-degree d, genus g
curve at five centres, and solves the affine system they define exactly.
Here the box search it replaced stays as the reference, the affine premise
is tested against the program at random centres, and a blow-up rule that
breaks the premise makes the check fail.
"""

from itertools import product

import pytest

from chowcalc import checks
from chowcalc.rings import blowup_threefold_along_curve, catalog

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

LABEL = "centres with alpha^2 . D = 0 for all divisors D"
SAMPLES = [(1, 1, 1, 0), (2, 1, 1, 0), (1, 2, 1, 0), (1, 1, 2, 0),
           (1, 1, 1, 1)]


def box_search():
    """Every centre with tri-degree in [0, 3]^3, not zero, and genus 0..2
    whose alpha has alpha^2 . D = 0 for every divisor D, and alpha^3 = 0."""
    base = catalog("P1^3")
    t = [base.var("alpha_%d" % i) for i in (1, 2, 3)]
    solutions = []
    for d in product(range(4), repeat=3):
        curve = (d[0] * (t[1] * t[2]).rep + d[1] * (t[0] * t[2]).rep
                 + d[2] * (t[0] * t[1]).rep)
        if curve.is_zero():
            continue
        for g in range(3):
            bl = blowup_threefold_along_curve(base, curve, g)
            e = bl.var("e")
            tb = [bl.var("alpha_%d" % i) for i in (1, 2, 3)]
            alpha = tb[0] + tb[1] + tb[2] - e
            vals = [bl.integrate(alpha ** 2 * x) for x in tb]
            vals.append(bl.integrate(alpha ** 3))
            if all(v == 0 for v in vals):
                solutions.append((d, g))
    return solutions


def run_check():
    return checks.run_check(checks.get_check("blowup-consistency"))


def test_the_box_search_finds_the_solved_centre():
    solutions = box_search()
    assert solutions == [((2, 2, 2), 1)]
    result = run_check()
    assert result.passed
    assert result.transcript[0] == "%s = %s" % (LABEL, solutions)


@settings(max_examples=40, deadline=None)
@given(d=st.tuples(*[st.integers(0, 5)] * 3).filter(any),
       g=st.integers(-2, 4))
def test_the_integrals_are_affine_in_degree_and_genus(d, g):
    x0, *steps = SAMPLES
    f0 = checks._blowup_of_p1_cubed(*x0)[1]
    fs = [checks._blowup_of_p1_cubed(*x)[1] for x in steps]
    x = d + (g,)
    want = [f0[r] + sum((x[j] - x0[j]) * (fs[j][r] - f0[r])
                        for j in range(4)) for r in range(4)]
    assert checks._blowup_of_p1_cubed(*x)[1] == want


def e_cubed_off_by_one(base, curve, genus):
    bl = blowup_threefold_along_curve(base, curve, genus)
    bl.top[(0,) * len(base.sig) + (3,)] += 1
    return bl


def genus_ignored(base, curve, genus):
    return blowup_threefold_along_curve(base, curve, 0)


def centre_tripled(base, curve, genus):
    # alpha^2 . alpha_j = 2 - 3 d_j: the solution has d_j = 2/3
    return blowup_threefold_along_curve(base, 3 * curve, genus)


@pytest.mark.parametrize("fake", [e_cubed_off_by_one, genus_ignored,
                                  centre_tripled])
def test_a_broken_blowup_rule_fails_the_check(monkeypatch, fake):
    monkeypatch.setattr(checks, "blowup_threefold_along_curve", fake)
    result = run_check()
    assert not result.passed
    assert result.transcript[0].startswith(("FAIL " + LABEL, "ERROR "))


def test_the_check_builds_at_most_six_blowups(monkeypatch):
    calls = []

    def counting(base, curve, genus):
        calls.append((curve, genus))
        return blowup_threefold_along_curve(base, curve, genus)

    monkeypatch.setattr(checks, "blowup_threefold_along_curve", counting)
    assert run_check().passed
    assert len(calls) <= 6
