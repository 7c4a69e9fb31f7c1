"""Named verification checks with a deterministic, seedable runner.

Each check re-derives one quantitative claim about the genus-9 Fano
4-fold B and its surrounding geometry (the surface of lines, the
incidence 4-fold, the Lagrangian Grassmannian, the rank-2 sheaf on P5)
and records an exact-value transcript.  Checks are pure; for a fixed
seed the transcript is reproduced byte for byte, whichever process runs
each of a check's parts.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Dict, List, Optional, Sequence

from .poly import Poly, Signature, coefficient, parse_poly
from .linalg import det, inverse, rank
from .rings import (ChowRing, blowup_threefold_along_curve, catalog,
                    integrate_on_hyperplane_section, product_ring,
                    projective_bundle, projective_space, relative_canonical)
from .bundles import (BundleClass, chern_character, chern_from_character,
                      chi_of_character, dual, grr_push_curve, segre,
                      segre_component, twist, whitney_quotient)
from . import bott
from .sl2 import SL2Rep, euler_solve, monomial_section_count
from . import pencil, workers

DEFAULT_SEED = 20260826


class UnknownCheckError(ValueError):
    pass


class Recorder:
    """Collects a transcript of exact comparisons for one check."""

    def __init__(self):
        self.lines: List[str] = []
        self.verdicts = 0  # expect and claim calls, passed or not
        self.failures = 0

    def note(self, text: str) -> None:
        self.lines.append(text)

    def fail(self, line: str) -> None:
        self.failures += 1
        self.lines.append(line)

    def expect(self, label: str, got, want) -> bool:
        self.verdicts += 1
        if got == want:
            self.lines.append("%s = %s" % (label, got))
            return True
        self.fail("FAIL %s = %s, expected %s" % (label, got, want))
        return False

    def claim(self, label: str, holds: bool) -> bool:
        self.verdicts += 1
        if holds:
            self.lines.append(label)
            return True
        self.fail("FAIL " + label)
        return False


class Check:
    """A registered check: its `section` is "1".."4" or "all", `ref` a
    one-line statement of the claim, and `parts` its bodies, in transcript
    order, each run with a seed and a Recorder of its own.  Most checks
    have one part; a check with independent long pieces has one part per
    piece, so that a runner can spread them over processes."""

    __slots__ = ("name", "section", "ref", "slow", "parts")

    def __init__(self, name: str, section: str, ref: str, slow: bool,
                 *parts: Callable[[int, Recorder], None]):
        self.name = name
        self.section = section
        self.ref = ref
        self.slow = slow
        self.parts = parts


class CheckResult:
    """One run of a check: its fields, the seed, the verdict, the
    transcript and the wall time in milliseconds."""

    __slots__ = ("name", "section", "ref", "slow", "seed", "passed",
                 "transcript", "millis")

    def __init__(self, name: str, section: str, ref: str, slow: bool,
                 seed: int, passed: bool, transcript: List[str],
                 millis: int):
        self.name = name
        self.section = section
        self.ref = ref
        self.slow = slow
        self.seed = seed
        self.passed = passed
        self.transcript = transcript
        self.millis = millis

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "section": self.section,
            "ref": self.ref,
            "slow": self.slow,
            "seed": self.seed,
            "status": self.status,
            "transcript": list(self.transcript),
            "millis": self.millis,
        }


@lru_cache(maxsize=None)
def _ring(name: str) -> ChowRing:
    return catalog(name)


def _fb_alphas(ring):
    return [ring.var("alpha_%d" % i) for i in range(1, 5)]


# --------------------------------------------------------------------------
# section 1: homogeneous bundles, Bott acyclicity, dimension bookkeeping

SIX_WEIGHTS = ((0, 0, -1), (0, -1, -1), (-1, -1, -1),
               (-1, -1, -2), (-1, -2, -2), (-2, -2, -2))


def _check_bott_six_weights(seed: int, rec: Recorder) -> None:
    for w in SIX_WEIGHTS:
        acyclic, witness = bott.is_acyclic(w)
        rec.claim("weight %s acyclic (%s)" % (list(w), witness), acyclic)
    # the one weight whose certificate is a sign collision, not a zero entry
    rec.claim("weight [-1, -1, -2] certified by an absolute-value collision",
              "absolute value" in bott.is_acyclic((-1, -1, -2))[1])
    for w, want in (((1, 0, 0), (0, 6)), ((1, 1, 0), (0, 14)),
                    ((1, 1, 1), (0, 14))):
        rec.expect("cohomology of weight %s" % (list(w),),
                   bott.cohomology(w), want)
    rec.expect("structure sheaf (0,0,0)", bott.cohomology((0, 0, 0)), (0, 1))


def _check_dimension_ledger(seed: int, rec: Recorder) -> None:
    rec.expect("h^0 of the weight-(1,0,0) bundle", bott.cohomology((1, 0, 0)),
               (0, 6))
    ext1 = euler_solve([1, SL2Rep((0, 2, 2, 4)), SL2Rep((2, 2, 4)), None])
    rec.expect("alternating ledger 1 - 12 + 11 solves the last term to",
               ext1, 0)
    rec.expect("sections of O(1,1,1,1) on (P1)^4",
               monomial_section_count((1, 1, 1, 1)), 16)
    rec.expect("sections restricted to a (1,1,1,1) divisor",
               monomial_section_count((1, 1, 1, 1), (1, 1, 1, 1)), 15)


def _p1_times_b() -> ChowRing:
    return product_ring(projective_space(1, var="sigma"), _ring("B"))


def _check_eizi_vanishing(seed: int, rec: Recorder) -> None:
    ring = _p1_times_b()
    sigma = ring.var("sigma")
    h3 = ring.var("h_3")
    for i in range(1, 5):
        ai = ring.var("a_%d" % i)
        vi = 2 * ai - Fraction(1, 2) * h3 ** 2
        expr = (ai + h3 * sigma - vi) * (ai - 3 * h3 * sigma)
        rec.claim("(a_%d + h_3 sigma - V_%d)(a_%d - 3 h_3 sigma) = 0"
                  % (i, i, i), expr.is_zero())
    rec.expect("normalization: integral of sigma h_3^4",
               ring.integrate(sigma * h3 ** 4), 16)


def _check_pi_model_quadric(seed: int, rec: Recorder) -> None:
    ring = _ring("Pi")
    h = ring.var("h")
    sigma = ring.var("sigma")
    rec.expect("integral of 2h . sigma . (h + 2 sigma)^2 on the P3-bundle",
               ring.integrate(2 * h * sigma * (h + 2 * sigma) ** 2), 2)
    rec.expect("fibre normalization: integral of sigma h^3",
               ring.integrate(sigma * h ** 3), 1)


# --------------------------------------------------------------------------
# section 2: the surface of lines F_B inside (P1)^4 and G(2,6)


def _check_deg_fb_24(seed: int, rec: Recorder) -> None:
    g = _ring("G26")
    h2, c2 = g.var("h_2"), g.var("c_2")
    rec.expect("hyperplane-section integral of 4(h_2^2 - c_2)^2 h_2^3",
               integrate_on_hyperplane_section(
                   g, h2, 4 * (h2 ** 2 - c2) ** 2 * h2 ** 3), 24)
    fb = _ring("FB")
    h2f = sum(_fb_alphas(fb), fb.zero())
    rec.expect("degree of the divisor model: integral of h_2^3",
               fb.integrate(h2f ** 3), 24)


def _check_alphai_deg_6(seed: int, rec: Recorder) -> None:
    g = _ring("G26")
    h2, c2 = g.var("h_2"), g.var("c_2")
    rec.expect("hyperplane-section integral of 2 h_2 c_2 (h_2^2 - c_2) h_2^2",
               integrate_on_hyperplane_section(
                   g, h2, 2 * h2 * c2 * (h2 ** 2 - c2) * h2 ** 2), 6)
    fb = _ring("FB")
    alphas = _fb_alphas(fb)
    h2f = sum(alphas, fb.zero())
    for i, a in enumerate(alphas, start=1):
        rec.expect("integral of alpha_%d h_2^2" % i,
                   fb.integrate(a * h2f ** 2), 6)


def _check_deg_g26_14(seed: int, rec: Recorder) -> None:
    g = _ring("G26")
    h2 = g.var("h_2")
    rec.expect("integral of h_2^8 on G(2,6)", g.integrate(h2 ** 8), 14)
    rec.expect("hyperplane-section integral of h_2^7",
               integrate_on_hyperplane_section(g, h2, h2 ** 7), 14)
    rec.expect("graded dimensions of the presentation",
               g.hilbert_function(), [1, 1, 2, 2, 3, 2, 2, 1, 1])


def _check_fb_triple_products(seed: int, rec: Recorder) -> None:
    fb = _ring("FB")
    alphas = _fb_alphas(fb)
    h2 = sum(alphas, fb.zero())
    square_ok = all(fb.integrate(a * a * y) == 0
                    for a in alphas for y in alphas + [h2])
    rec.claim("alpha_i^2 . D = 0 for every divisor D", square_ok)
    pair_ok = all(fb.integrate(alphas[i] * alphas[j] * h2) == 2
                  for i in range(4) for j in range(4) if i != j)
    rec.claim("alpha_i alpha_j h_2 = 2 for i != j", pair_ok)
    triple_ok = all(fb.integrate(alphas[i] * alphas[j] * alphas[k]) == 1
                    for i in range(4) for j in range(4) for k in range(4)
                    if len({i, j, k}) == 3)
    rec.claim("alpha_i alpha_j alpha_k = 1 for distinct i, j, k", triple_ok)
    v_ok = all(fb.integrate((h2 - 2 * alphas[i]) * alphas[j] * alphas[k]) == 0
               for i in range(4) for j in range(4) for k in range(4)
               if len({i, j, k}) == 3)
    rec.claim("v_i alpha_j alpha_k = 0 with v_i = h_2 - 2 alpha_i", v_ok)


def _blowup_of_p1_cubed(d1, d2, d3, g):
    """The blow-up of P1^3 along a tri-degree (d1, d2, d3), genus g curve,
    and alpha^2 . alpha_i (i = 1, 2, 3) and alpha^3 there, alpha = h - e."""
    base = _ring("P1^3")
    t = [base.var("alpha_%d" % i) for i in (1, 2, 3)]
    curve = d1 * t[1] * t[2] + d2 * t[0] * t[2] + d3 * t[0] * t[1]
    bl = blowup_threefold_along_curve(base, curve, g)
    tb = [bl.var("alpha_%d" % i) for i in (1, 2, 3)]
    alpha = tb[0] + tb[1] + tb[2] - bl.var("e")
    return bl, [bl.integrate(alpha ** 2 * x) for x in tb + [alpha]]


def _check_blowup_consistency(seed: int, rec: Recorder) -> None:
    # pi^*D . e^2 = -D.C and e^3 = -(-K.C + 2g - 2) make the four integrals
    # affine in x = (d, g): read the map off unit steps from x0, solve once
    x0 = (1, 1, 1, 0)
    f0 = _blowup_of_p1_cubed(*x0)[1]
    fs = [_blowup_of_p1_cubed(*[a + (i == j) for i, a in enumerate(x0)])[1]
          for j in range(4)]
    inv = inverse([[f[r] - f0[r] for f in fs] for r in range(4)])
    x = [coefficient(a - sum(m * v for m, v in zip(row, f0)))
         for a, row in zip(x0, inv)]
    bl, vals = _blowup_of_p1_cubed(*x)
    rec.expect("centres with alpha^2 . D = 0 for all divisors D",
               [] if any(vals) else [(tuple(x[:3]), x[3])], [((2, 2, 2), 1)])
    e = bl.var("e")
    tb = [bl.var("alpha_%d" % i) for i in (1, 2, 3)]
    hb = tb[0] + tb[1] + tb[2]
    rec.expect("integral of (2h - e)^3", bl.integrate((2 * hb - e) ** 3), 24)

    fb = _ring("FB")
    alphas = _fb_alphas(fb)
    h2f = sum(alphas, fb.zero())
    bl_alphas = tb + [hb - e]
    h2b = 2 * hb - e
    mismatches = 0
    for i in range(4):
        for j in range(4):
            for k in range(4):
                want = fb.integrate(alphas[i] * alphas[j] * alphas[k])
                got = bl.integrate(bl_alphas[i] * bl_alphas[j] * bl_alphas[k])
                if got != want:
                    mismatches += 1
            if (bl.integrate(bl_alphas[i] * bl_alphas[j] * h2b)
                    != fb.integrate(alphas[i] * alphas[j] * h2f)):
                mismatches += 1
    rec.expect("triple-product mismatches against the divisor model",
               mismatches, 0)


# --------------------------------------------------------------------------
# section 3: the Chow rings of B, I, and the Lagrangian Grassmannian


def _check_chow_b_presentation(seed: int, rec: Recorder) -> None:
    b = _ring("B")
    h3 = b.var("h_3")
    a = [b.var("a_%d" % i) for i in range(1, 5)]
    rec.expect("integral of h_3^4", b.integrate(h3 ** 4), 16)
    rec.expect("integral of a_1 a_2", b.integrate(a[0] * a[1]), 2)
    rec.expect("point class: integral of a_1 a_2 / 2",
               b.integrate(Fraction(1, 2) * a[0] * a[1]), 1)
    rec.claim("8 h_3 a_i = 3 h_3^3 for all i",
              all((8 * h3 * ai - 3 * h3 ** 3).is_zero() for ai in a))
    rec.claim("8 a_i a_j = h_3^4 for i != j",
              all((8 * a[i] * a[j] - h3 ** 4).is_zero()
                  for i in range(4) for j in range(4) if i != j))
    rec.claim("a_i^2 = (3/16) h_3^4",
              all((ai * ai - Fraction(3, 16) * h3 ** 4).is_zero() for ai in a))
    v = [2 * ai - Fraction(1, 2) * h3 ** 2 for ai in a]
    rec.claim("V_i V_j = 0 for i != j",
              all((v[i] * v[j]).is_zero()
                  for i in range(4) for j in range(4) if i != j))
    rec.claim("integral of V_i^2 = 4 for all i",
              all(b.integrate(vi * vi) == 4 for vi in v))
    rec.claim("deg V_i = integral of V_i h_3^2 = 4",
              all(b.integrate(vi * h3 ** 2) == 4 for vi in v))
    pb = _p1_times_b()
    sigma, h3p = pb.var("sigma"), pb.var("h_3")
    deg_ok = True
    for i in range(1, 5):
        ai = pb.var("a_%d" % i)
        vi = 2 * ai - Fraction(1, 2) * h3p ** 2
        zi = ai + h3p * sigma - vi
        if pb.integrate(sigma * zi * h3p ** 2) != 2:
            deg_ok = False
    rec.claim("deg Z_i,p = 2 (fibre slice of a_i + h_3 sigma - V_i)", deg_ok)
    rec.expect("graded dimensions", b.hilbert_function(), [1, 1, 4, 1, 1])


def _check_gensa2b_relation(seed: int, rec: Recorder) -> None:
    b = _ring("B")
    h3 = b.var("h_3")
    a = [b.var("a_%d" % i) for i in range(1, 5)]
    total = sum(a, b.zero())
    rec.claim("2(a_1 + a_2 + a_3 + a_4) = 3 h_3^2",
              (2 * total - 3 * h3 ** 2).is_zero())
    hf = b.hilbert_function()
    rec.expect("graded dimensions", hf, [1, 1, 4, 1, 1])
    rec.expect("rank of the degree-2 piece spanned by a_1..a_4", hf[2], 4)


def _check_ai_coefficient(seed: int, rec: Recorder) -> None:
    # symbolic surface ring: h_2 a divisor class, c_2 a free degree-2 class,
    # truncated above the surface's dimension 2
    sig = Signature.make([("h_2", 1), ("c_2", 2)])
    s = ChowRing("S", sig, [parse_poly(r, sig)
                            for r in ("h_2^3", "h_2*c_2", "c_2^2")], 2)
    h2, c2 = s.var("h_2"), s.var("c_2")
    k2 = BundleClass(s, 2, [-h2, c2])
    perp = whitney_quotient(BundleClass.trivial(s, 6), dual(k2))
    n = whitney_quotient(perp, k2)
    tw = twist(dual(n), h2)
    rec.expect("c_2 of the twisted dual quotient", str(tw.c(2)),
               str(2 * h2 ** 2 - 2 * c2))
    rec.expect("value under h_2^2 = 3 c_2, normalized by h_2^2",
               tw.c(2).rep.evaluate({"h_2": Fraction(1),
                                     "c_2": Fraction(1, 3)}),
               Fraction(4, 3))
    _pulled_back_ai(rec, "sum of the pulled-back a_i classes")


def _pulled_back_ai(rec: Recorder, label: str):
    """h_3' and the classes h_3'(h_2 - a_i) + h_2(2 a_i - h_2) on I.

    Claims, under `label`, that the four classes sum to (3/2) h_3'^2.
    """
    ring = _ring("I")
    base = ring.base
    h3p = ring.var("h_3'")
    alphas = [ring.pullback(base.var("alpha_%d" % i)) for i in range(1, 5)]
    h2 = sum(alphas, ring.zero())
    pulled = [h3p * (h2 - ai) + h2 * (2 * ai - h2) for ai in alphas]
    rec.claim("%s = (3/2) h_3'^2" % label,
              (sum(pulled, ring.zero())
               - Fraction(3, 2) * h3p ** 2).is_zero())
    return h3p, pulled


def _check_relative_canonical_i(seed: int, rec: Recorder) -> None:
    ring = _ring("I")
    base = ring.base
    h3p = ring.var("h_3'")
    h2 = ring.pullback(
        base.parse("alpha_1 + alpha_2 + alpha_3 + alpha_4"))
    rec.expect("relative canonical class of the P1-bundle",
               str(relative_canonical(ring)), str(2 * h2 - 2 * h3p))
    rec.claim("defining relation h_3'^2 - 2 h_2 h_3' + (4/3) h_2^2 = 0",
              (h3p ** 2 - 2 * h2 * h3p
               + Fraction(4, 3) * h2 ** 2).is_zero())


def _check_pullback_sanity(seed: int, rec: Recorder) -> None:
    fb = _ring("FB")
    alphas = _fb_alphas(fb)
    h2 = sum(alphas, fb.zero())
    for i, ai in enumerate(alphas, start=1):
        expr = 2 * h2 * (h2 - ai) + h2 * (2 * ai - h2) - h2 ** 2
        rec.claim("2 h_2(h_2 - alpha_%d) + h_2(2 alpha_%d - h_2) = h_2^2"
                  % (i, i), expr.is_zero())
    ring = _ring("I")
    h3p = ring.var("h_3'")
    a1 = fb.var("alpha_1")
    pushed = ring.pushforward(ring.pullback(a1) * h3p)
    rec.claim("projection formula: push(pull(alpha_1) . h_3') = alpha_1",
              (pushed - a1).is_zero())
    point = fb.parse("alpha_1*alpha_2*alpha_3")
    rec.expect("integral of pull(point) . h_3'",
               ring.integrate(ring.pullback(point) * h3p), 1)


def _check_eii_pullback_identity(seed: int, rec: Recorder) -> None:
    ring = _ring("I")
    h3p, pulled = _pulled_back_ai(
        rec, "sum of the four pulled-back surface classes")
    # the projection to B is generically 4:1, so products scale by 4
    rec.claim("E_i . h_3'^2 = 24 = 4 x 6 for all i",
              all(ring.integrate(e * h3p ** 2) == 24 for e in pulled))
    rec.claim("E_i^2 = 12 = 4 x 3 for all i",
              all(ring.integrate(e * e) == 12 for e in pulled))
    rec.claim("E_i E_j = 8 = 4 x 2 for i != j",
              all(ring.integrate(pulled[i] * pulled[j]) == 8
                  for i in range(4) for j in range(4) if i != j))


def _check_gw36_presentation(seed: int, rec: Recorder) -> None:
    gw = _ring("Gw36")
    c1 = gw.var("c_1'")
    rec.expect("integral of c_1'^6", gw.integrate(c1 ** 6), 16)
    hf = gw.hilbert_function()
    rec.expect("graded dimensions", hf, [1, 1, 1, 2, 1, 1, 1])
    rec.expect("Euler characteristic", sum(hf), 8)
    rec.expect("rank of the degree-2 piece", hf[2], 1)


def _check_gw36_restriction_relation(seed: int, rec: Recorder) -> None:
    gw = _ring("Gw36")
    c1, c2, c3 = gw.var("c_1'"), gw.var("c_2'"), gw.var("c_3'")
    rec.expect("integral of c_1'^4 c_2'", gw.integrate(c1 ** 4 * c2), 8)
    rec.expect("integral of c_1'^3 c_3'", gw.integrate(c1 ** 3 * c3), 2)
    rec.expect("pairing of c_1'c_2' - 4c_3' against c_1'^3",
               gw.integrate((c1 * c2 - 4 * c3) * c1 ** 3), 0)
    # on the codimension-2 linear section the degree-3 piece is a line
    # paired perfectly with h_3, so the zero pairing kills the restriction
    b = _ring("B")
    rec.expect("degree-3 rank on the linear section", b.hilbert_function()[3],
               1)
    rec.claim("pairing against h_3 is perfect there",
              b.integrate(b.var("h_3") ** 4) != 0)


def _check_i_degree_64(seed: int, rec: Recorder) -> None:
    ring = _ring("I")
    h3p = ring.var("h_3'")
    rec.expect("integral of h_3'^4", ring.integrate(h3p ** 4), 64)
    b = _ring("B")
    rec.expect("4 x the degree of the image under the 4:1 projection",
               4 * b.integrate(b.var("h_3") ** 4), 64)


# --------------------------------------------------------------------------
# section 4: the pencil of skew forms, the quasimonad, and the sheaf on P5


def _check_pencil_beta(seed: int, rec: Recorder) -> None:
    p = pencil.SkewPencil.built_in()
    rec.claim("Pfaffian of the pencil vanishes identically",
              p.pfaffian().is_zero())
    cert = pencil.constant_rank_certificate(p)
    rec.claim("constant-rank-4 certificate: %s" % cert, cert.ok)
    rec.expect("sub-Pfaffian gcd", str(cert.gcd), "1")
    rec.expect("rank of the 12x12 flattening", pencil.flatten_rank(), 6)
    rng = random.Random(seed)
    ranks = set()
    for _ in range(20):
        u, v = rng.randint(-9, 9), rng.randint(-9, 9)
        if u == 0 and v == 0:
            u = 1
        ranks.add(p.rank_at(u, v))
    rec.expect("ranks at 20 seeded parameter points", sorted(ranks), [4])


def _check_segre_birational(seed: int, rec: Recorder) -> None:
    b = _ring("B")
    h3, a1 = b.var("h_3"), b.var("a_1")
    e1 = BundleClass(b, 2, [-h3, a1])
    rec.expect("integral of s_4 of the rank-2 bundle",
               b.integrate(segre_component(e1, 4)), 1)
    e1t = twist(e1, h3)
    pb = projective_bundle(b, [e1t.c(1).rep, e1t.c(2).rep], "h",
                           label="ProjE1")
    h = pb.var("h")
    h3u = pb.pullback(h3)
    exceptional = relative_canonical(pb) + pb.pullback(-2 * h3) + 6 * h
    rec.expect("exceptional class from the canonical identity",
               str(exceptional), str(4 * h - h3u))
    rec.expect("integral of h^5 on the scroll", pb.integrate(h ** 5), 1)


def _check_k_invariants(seed: int, rec: Recorder) -> None:
    p5 = projective_space(5)
    h = p5.var("h")
    fact = [1, 1, 2, 6, 24, 120]

    def ch_line(d):
        return sum(((d * h) ** k * Fraction(1, fact[k]) for k in range(6)),
                   p5.zero())

    ch_cubic = grr_push_curve(p5, 0, 3 * h ** 4, h ** 5, 4)
    rec.expect("character of the degree-4 line bundle on the cubic curve",
               str(ch_cubic), str(3 * h ** 4 - 4 * h ** 5))
    ch_k = p5.const(6) - 2 * ch_line(1) - 2 * ch_line(-1) + ch_cubic
    k = chern_from_character(p5, ch_k)
    rec.expect("rank", k.rank, 2)
    rec.expect("c_1", str(k.c(1)), "0")
    rec.expect("c_2", str(k.c(2)), str(2 * h ** 2))
    rec.expect("c_3", str(k.c(3)), "0")
    rec.expect("c_4", str(k.c(4)), str(-15 * h ** 4))
    rec.expect("chi after twisting by O(2)",
               chi_of_character(p5, ch_k * ch_line(2)), 13)
    rec.expect("chi after twisting by O(1)",
               chi_of_character(p5, ch_k * ch_line(1)), 0)
    rec.expect("chi untwisted", chi_of_character(p5, ch_k), -1)


def _check_quasimonad_exactness(seed: int, rec: Recorder) -> None:
    report = pencil.quasimonad_checks(seed)
    rec.claim("composition of the two maps is identically zero",
              report.composition_zero)
    rec.expect("determinant of the induced form on the column space",
               report.form_determinant, 1)
    rec.expect("left-map rank at the first coordinate point",
               report.left_rank_at_e0, 2)
    rec.expect("generic right-map rank over the seeded sample",
               report.right_generic_rank, 2)
    rec.claim("left-map rank 2 at all %d seeded points"
              % len(report.sample_ranks),
              all(r == 2 for _, r in report.sample_ranks))
    interleaved = pencil.interleaved_flattening(pencil.SkewPencil.built_in())
    rec.claim("interleaved flattening reproduces the stored 12x12 matrix",
              interleaved == pencil.flattening_matrix())


def _check_w_form_nondegenerate(seed: int, rec: Recorder) -> None:
    q = pencil.Quasimonad.built_in()
    rec.expect("pivot columns of the flattening", list(q.pivots),
               [0, 1, 2, 4, 6, 11])
    form = q.form
    rec.claim("induced form is antisymmetric",
              all(form[i][j] == -form[j][i] for i in range(6)
                  for j in range(6)))
    rec.expect("determinant", det(form), 1)
    rec.expect("rank", rank(form), 6)
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)
             if form[i][j] != 0]
    rec.expect("hyperbolic pairing pattern", pairs, [(0, 2), (1, 3), (4, 5)])


def _check_gw_point_oracle(seed: int, rec: Recorder) -> None:
    rng = random.Random(seed)
    all_ok = True
    for trial in range(10):
        s = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                s[i][j] = s[j][i] = rng.randint(-4, 4)
        plane = pencil.graph_plane(s)
        if not pencil.is_isotropic(plane):
            all_ok = False
            rec.claim("trial %d: graph plane isotropic" % trial, False)
            continue
        a, x, y, b = pencil.plucker_abxy(plane)
        adj = pencil.adjugate3(s)
        good = (a == 1 and x == s and y == [list(row) for row in adj]
                and b == det(s))
        good = good and all(r == 0 for r in pencil.gw_residuals(a, x, y, b))
        if not good:
            all_ok = False
            rec.claim("trial %d: chart identity (1, S, adj S, det S)" % trial,
                      False)
    rec.claim("10 seeded symmetric charts satisfy the quadratic model",
              all_ok)
    basis = [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]]
    rec.claim("witness plane spanned by e0, e1, e3 is not isotropic",
              not pencil.is_isotropic(basis))
    a, x, y, b = pencil.plucker_abxy(basis)
    residuals = pencil.gw_residuals(a, x, y, b)
    rec.claim("witness plane violates the model equations",
              any(r != 0 for r in residuals))


def _check_cubic_locus(seed: int, rec: Recorder) -> None:
    report = pencil.minors_locus_hilbert(cap=8)
    # only a tail that reaches 3t+1 passes; an inconclusive run fails
    rec.claim("rank-1 locus status %r (%s)" % (report.status, report.detail),
              report.ok)
    rec.note("Hilbert values %s" % (report.hilbert_values,))
    if report.status == "cubic":
        rec.note("tail matches 3t + 1, a degree-3 curve with chi = 1")


def _check_congruence_model(seed: int, rec: Recorder) -> None:
    report = pencil.congruence_model_check()
    for label, inside in report.memberships:
        rec.claim("section %s lies in the incidence ideal" % label, inside)
    rec.expect("presentation-matrix rank off the hyperplane section",
               report.rank_off_section, 2)
    rec.expect("presentation-matrix rank on the hyperplane section",
               report.rank_on_section, 1)
    rec.claim("constructed points satisfy the quadratic model",
              report.point_residuals_ok)


# --------------------------------------------------------------------------
# cross-cutting seeded property suites

SUITE_SIZE = 200


def _random_poly(rng: random.Random, sig: Signature, max_deg: int = 3) -> Poly:
    """A sum of 1-4 random terms, each a coefficient n/d times up to max_deg
    variables drawn with repetition; each term is built as an exponent
    tuple (rng.choice of a range draws as rng.choice of the names does),
    and n/d as the numerator 12n/d over 12 = lcm(1, 2, 3, 4)."""
    terms = {}
    positions = range(len(sig))
    for _ in range(rng.randint(1, 4)):
        n, d = rng.randint(-9, 9), rng.randint(1, 4)
        exponents = [0] * len(sig)
        for _ in range(rng.randint(0, max_deg)):
            exponents[rng.choice(positions)] += 1
        mono = tuple(exponents)
        terms[mono] = terms.get(mono, 0) + n * (12 // d)
    return Poly(sig, {m: c for m, c in terms.items() if c}, 12)


def _suite_ring_axioms(rng: random.Random) -> int:
    sig = Signature.make([("x", 1), ("y", 1), ("z", 2)])
    bad = 0
    for _ in range(SUITE_SIZE):
        a = _random_poly(rng, sig)
        b = _random_poly(rng, sig)
        c = _random_poly(rng, sig)
        if (a + b) + c != a + (b + c):
            bad += 1
        elif a * b != b * a:
            bad += 1
        elif a * (b + c) != a * b + a * c:
            bad += 1
        elif (a * b) * c != a * (b * c):
            bad += 1
        elif a + (-a) != Poly.zero(sig):
            bad += 1
        elif parse_poly(str(a), sig) != a:
            bad += 1
    return bad


def _suite_normal_form(rng: random.Random) -> int:
    b = _ring("B")
    sig = b.sig
    nf = b.normal_form
    bad = 0
    for _ in range(SUITE_SIZE):
        p = _random_poly(rng, sig, max_deg=4)
        q = _random_poly(rng, sig, max_deg=3)
        n = nf(p)
        if nf(n) != n:
            bad += 1
        elif nf(p * q) != nf(nf(p) * nf(q)):
            bad += 1
    return bad


def _suite_whitney_segre(rng: random.Random) -> int:
    p5 = projective_space(5)
    h = p5.var("h")
    one = p5.one()
    bad = 0
    for _ in range(SUITE_SIZE):
        r = rng.randint(2, 4)
        e = BundleClass(p5, r, [rng.randint(-3, 3) * h ** i
                                for i in range(1, r + 1)])
        sub = BundleClass.line(p5, rng.randint(-3, 3) * h)
        quot = whitney_quotient(e, sub)
        product = sub.total_chern() * quot.total_chern()
        if product != e.total_chern():
            bad += 1
            continue
        mixed = segre(e) * e.total_chern()
        if mixed != one:
            bad += 1
    return bad


def _suite_clebsch_gordan(rng: random.Random) -> int:
    bad = 0
    for _ in range(SUITE_SIZE):
        a = SL2Rep([rng.randint(0, 6) for _ in range(rng.randint(1, 3))])
        b = SL2Rep([rng.randint(0, 6) for _ in range(rng.randint(1, 3))])
        ab = a * b
        if ab.dim() != a.dim() * b.dim():
            bad += 1
        elif ab != b * a:
            bad += 1
    return bad


def _suite_pfaffian(rng: random.Random) -> int:
    bad = 0
    for _ in range(SUITE_SIZE):
        n = rng.choice((2, 4, 6))
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = rng.randint(-9, 9)
                m[j][i] = -m[i][j]
        if pencil.pfaffian(m) ** 2 != det(m):
            bad += 1
    return bad


SUITES = (("ring axioms and grammar round-trip", _suite_ring_axioms),
          ("normal-form idempotence and multiplicativity", _suite_normal_form),
          ("Whitney and Segre round-trips", _suite_whitney_segre),
          ("Clebsch-Gordan dimension multiplicativity", _suite_clebsch_gordan),
          ("Pfaffian squared equals determinant", _suite_pfaffian))


def _suite_part(offset: int) -> Callable[[int, Recorder], None]:
    """Suite number `offset` as a part: it runs on Random(seed + offset)."""
    label, suite = SUITES[offset]

    def part(seed: int, rec: Recorder) -> None:
        failures = suite(random.Random(seed + offset))
        rec.expect("%s: failures over %d instances" % (label, SUITE_SIZE),
                   failures, 0)
    return part


# --------------------------------------------------------------------------
# registry and runner


def _registry(*checks: Check) -> Dict[str, Check]:
    """Name -> check, in the given order; a name given twice is refused."""
    registry = {c.name: c for c in checks}
    if len(registry) != len(checks):
        raise ValueError("duplicate check names")
    return registry


REGISTRY: Dict[str, Check] = _registry(
    Check("bott-six-weights", "1",
          "the six listed C3 weights are acyclic and the dimension anchors "
          "6/14/14 hold", False, _check_bott_six_weights),
    Check("dimension-ledger", "1",
          "section count 6, vanishing first Ext by the alternating ledger, "
          "and the 16/15 monomial counts", False, _check_dimension_ledger),
    Check("EiZi-vanishing", "1",
          "(a_i + h_3 sigma - V_i)(a_i - 3 h_3 sigma) = 0 on P1 x B for "
          "all i", False, _check_eizi_vanishing),
    Check("pi-model-quadric", "1",
          "the relative model over P1 meets a quadric fibre slice in "
          "degree 2", False, _check_pi_model_quadric),
    Check("deg-FB-24", "2",
          "the surface of lines has degree 24: integral of "
          "4(h_2^2 - c_2)^2 h_2^3 . h_2 on G(2,6)", False,
          _check_deg_fb_24),
    Check("alphai-deg-6", "2",
          "each ruling class alpha_i has degree 6: integral of "
          "2 h_2 c_2 (h_2^2 - c_2) h_2^2 . h_2", False,
          _check_alphai_deg_6),
    Check("deg-G26-14", "2",
          "G(2,6) has degree 14 and Betti row (1,1,2,2,3,2,2,1,1)", False,
          _check_deg_g26_14),
    Check("fb-triple-products", "2",
          "triple products on the divisor model: alpha_i^2 D = 0, "
          "alpha_i alpha_j h_2 = 2, triples = 1, v_i alpha_j alpha_k = 0",
          False, _check_fb_triple_products),
    Check("blowup-consistency", "2",
          "the blow-up model of the surface of lines matches the divisor "
          "model and pins the centre to a (2,2,2) genus-1 curve", False,
          _check_blowup_consistency),
    Check("chow-B-presentation", "3",
          "the full presentation of the Chow ring of B: point class, "
          "quadratic relations, V_i and Z_i,p degrees", False,
          _check_chow_b_presentation),
    Check("gensA2B-relation", "3",
          "2(a_1+..+a_4) = 3 h_3^2 and the a_i span the 4-dimensional "
          "degree-2 piece", False, _check_gensa2b_relation),
    Check("AI-coefficient", "3",
          "c_2 of the twisted dual quotient is 2 h_2^2 - 2 c_2, giving "
          "the 4/3 coefficient, and the pulled-back a_i sum to "
          "(3/2) h_3'^2", False, _check_ai_coefficient),
    Check("relative-canonical-I", "3",
          "the relative canonical class of the incidence P1-bundle is "
          "2 h_2 - 2 h_3'", False, _check_relative_canonical_i),
    Check("pullback-sanity", "3",
          "divisor pullback identities and the projection formula on the "
          "incidence bundle", False, _check_pullback_sanity),
    Check("EiI-pullback-identity", "3",
          "per-index formula for the pulled-back a_i on the incidence "
          "4-fold, with 4:1-cover intersection numbers", False,
          _check_eii_pullback_identity),
    Check("gw36-presentation", "3",
          "the Lagrangian Grassmannian: degree 16, graded dimensions "
          "(1,1,1,2,1,1,1), Euler characteristic 8", False,
          _check_gw36_presentation),
    Check("gw36-restriction-relation", "3",
          "c_1'c_2' - 4 c_3' restricts to zero on the codimension-2 "
          "linear section", False, _check_gw36_restriction_relation),
    Check("I-degree-64", "3",
          "the incidence 4-fold has degree 64 = 4 x 16", False,
          _check_i_degree_64),
    Check("pencil-beta", "4",
          "the stored pencil of skew forms has identically vanishing "
          "Pfaffian, certified constant rank 4, and flattening rank 6",
          False, _check_pencil_beta),
    Check("segre-birational", "4",
          "s_4 of the rank-2 bundle integrates to 1 and the exceptional "
          "class is 4h - h_3", False, _check_segre_birational),
    Check("K-invariants", "4",
          "the middle-cohomology sheaf on P5 has rank 2, Chern classes "
          "(0,2,0,-15), and chi values 13/0/-1", False, _check_k_invariants),
    Check("quasimonad-exactness", "4",
          "zero composition, injective left map at seeded points, generic "
          "right rank 2, and the stored 12x12 matrix equals the "
          "interleaved flattening", False, _check_quasimonad_exactness),
    Check("w-form-nondegenerate", "4",
          "the induced alternating form on the 6-dimensional image is "
          "unimodular with three hyperbolic pairs", False,
          _check_w_form_nondegenerate),
    Check("gw-point-oracle", "4",
          "parametrized isotropic planes satisfy the quadratic model in "
          "(a, X, Y, b) coordinates; a non-isotropic plane fails", False,
          _check_gw_point_oracle),
    Check("cubic-locus", "4",
          "the rank-1 locus of the right map has Hilbert polynomial "
          "3t + 1 (a twisted cubic), or reports inconclusive at the cap",
          True, _check_cubic_locus),
    Check("congruence-model", "4",
          "the six bilinear sections lie in the incidence ideal and the "
          "2x6 matrix has rank profile 2/1 at constructed points", True,
          _check_congruence_model),
    Check("property-suites", "all",
          "five seeded property suites, 200 instances each: ring axioms, "
          "normal forms, Whitney/Segre, Clebsch-Gordan, Pfaffians", False,
          *[_suite_part(offset) for offset in range(len(SUITES))]),
)


def check_names() -> List[str]:
    return list(REGISTRY)


def get_check(name: str) -> Check:
    try:
        return REGISTRY[name]
    except KeyError:
        raise UnknownCheckError(
            "unknown check %r; run `verify list` for the registry" % name
        ) from None


def _normalize_section(section: str) -> str:
    s = section.strip()
    if s.startswith("§"):
        s = s[1:]
    return s


def select_checks(names: Optional[Sequence[str]] = None,
                  section: Optional[str] = None,
                  include_slow: bool = False) -> List[Check]:
    """Checks to run: explicit names bypass the slow filter.

    A name given twice is refused rather than run twice.  A section must
    name at least one section-specific check; the cross-cutting checks
    (section "all") run with every section.
    """
    if names:
        seen = set()
        for n in names:
            if n in seen:
                raise UnknownCheckError(
                    "check %r is given more than once" % n)
            seen.add(n)
        return [get_check(n) for n in names]
    chosen = list(REGISTRY.values())
    if section is not None:
        want = _normalize_section(section)
        if want == "all" or not any(c.section == want for c in chosen):
            raise UnknownCheckError(
                "no check belongs to section %r; `verify list` shows the "
                "sections" % section)
        chosen = [c for c in chosen
                  if c.section == want or c.section == "all"]
    if not include_slow:
        chosen = [c for c in chosen if not c.slow]
    return chosen


def _run_part(body, seed: int) -> tuple:
    """(lines, verdicts, failures, error line or None, seconds) of one
    part, run in this process with a Recorder of its own."""
    rec = Recorder()
    error = None
    start = time.perf_counter()
    try:
        body(seed, rec)
    except Exception as exc:
        error = "ERROR %s: %s" % (type(exc).__name__, exc)
    return (rec.lines, rec.verdicts, rec.failures, error,
            time.perf_counter() - start)


# the outcome of a part whose worker died before reporting it
_LOST = ([], 0, 0, "ERROR LostWorker: the process running this part exited "
         "without a result", 0.0)


def _result(check: Check, seed: int, outcomes) -> CheckResult:
    """A check's result from its parts' outcomes, taken in order up to the
    first part that raised: the transcript is their lines, and millis the
    sum of their times."""
    lines: List[str] = []
    verdicts = failures = 0
    seconds = 0.0
    for part_lines, part_verdicts, part_failures, error, secs in outcomes:
        lines += part_lines
        verdicts += part_verdicts
        failures += part_failures
        seconds += secs
        if error is not None:
            # a body that did not finish decided nothing, so it cannot pass
            lines.append(error)
            failures += 1
            break
    else:
        if not verdicts:
            lines.append("FAIL no claim or expectation was recorded")
            failures += 1
    return CheckResult(check.name, check.section, check.ref, check.slow,
                       seed, failures == 0, lines, int(seconds * 1000))


def run_check(check: Check, seed: int = DEFAULT_SEED) -> CheckResult:
    """Run one check's parts in order, in this process; a part that raises
    is the last one run."""
    if isinstance(check, str):
        check = get_check(check)
    return _result(check, seed,
                   (_run_part(body, seed) for body in check.parts))


def run_checks(checks: Sequence[Check],
               seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Run the checks' parts on every CPU this process may use, and return
    the checks' results sorted by name.  Each result is the one run_check
    gives, apart from millis; a part whose worker died fails its check."""
    jobs = [partial(_run_part, body, seed)
            for check in checks for body in check.parts]
    # a check is split because its parts are long: claimed first, they
    # leave the short parts to fill in around them
    split = [len(check.parts) > 1 for check in checks for _ in check.parts]
    done = workers.run(jobs, sorted(range(len(jobs)),
                                    key=lambda i: not split[i]))
    results, first = [], 0
    for check in checks:
        last = first + len(check.parts)
        results.append(_result(check, seed, (done.get(i, _LOST)
                                             for i in range(first, last))))
        first = last
    return sorted(results, key=lambda r: r.name)
