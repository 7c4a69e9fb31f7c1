"""The three benchmark workloads: seeded op streams, set-up, ops and checks.

Every workload is a closed loop with one client and no threads: the next
op starts only after the previous one has finished and been checked.
Checking happens outside the timed region of each op.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import oracle

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")

# (set-ups per run, set-ups per burst): one burst before the first pass and
# one after each pass until the count is reached, so that set-up time is
# sampled across the run rather than in one moment of it
SETUP_PLAN = {"verify-all-cold": (9, 3), "intersect-warm": (4, 1),
              "ring-churn": (40, 4)}
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def program():
    """Import the program's modules from the checkout's src/ directory."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from chowcalc import bundles, checks, linalg, pencil, poly, rings
    return {"poly": poly, "rings": rings, "bundles": bundles,
            "linalg": linalg, "pencil": pencil, "checks": checks}


def clear_catalog(mods):
    mods["rings"].catalog.cache_clear()
    mods["checks"]._ring.cache_clear()


def stream_digest(ops) -> str:
    return hashlib.sha256(repr(ops).encode()).hexdigest()


def nearest_rank(p, n) -> int:
    return int(-(-p * n // 100))  # ceil(p n / 100)


def latency_summary(samples, per_pass):
    """Median and a tail percentile, with the sample count.

    The tail is the highest ladder percentile that leaves at least ten
    samples beyond it in a single pass over the stream.  Every run makes at
    least one whole pass, so the choice depends on the stream length only
    and stays the same from run to run.
    """
    s = sorted(samples)
    n = len(s)
    p50 = statistics.median(s)
    for p in TAIL_LADDER:
        if per_pass - nearest_rank(p, per_pass) >= 10:
            return p50, s[nearest_rank(p, n) - 1], "p%g" % p, n
    return p50, s[-1], "max", n


def schedule(rng, quotas):
    """Op categories with exact per-pass counts, in a seeded order.

    Fixed counts keep the mix, and so the cost of a pass, the same for
    every seed; only the parameters of each op vary.
    """
    cats = [cat for cat, count in quotas for _ in range(count)]
    rng.shuffle(cats)
    return cats


def rand_coeff(rng):
    """A small nonzero rational, mostly an integer."""
    num = rng.choice((-3, -2, -1, 1, 2, 3))
    return Fraction(num, rng.choice((1, 1, 1, 2, 3)))


def rand_homogeneous(rng, weights, degree, terms=3):
    monos = oracle.monomials(weights, degree)
    picks = rng.sample(monos, min(len(monos), rng.randint(1, terms)))
    return {m: rand_coeff(rng) for m in picks}


def table_of(mods, ring):
    """Top-degree monomial integrals of a ring, from the program, untimed."""
    Poly = mods["poly"].Poly
    return {m: ring.integrate(ring.cls(Poly(ring.sig, {m: 1})))
            for m in oracle.monomials(ring.sig.weights, ring.dim)}


# ---------------------------------------------------------------------------
# intersect-warm: queries against pre-built catalog rings


WARM_RINGS = ("B", "G26", "Gw36", "FB", "I", "Pi", "P1^4", "P5")
CHERN_RINGS = ("B", "P5", "G26")
# (ring, {variable: exponent}) -> integral asserted by the verify checks
WARM_ANCHORS = (("B", {"h_3": 4}, 16), ("G26", {"h_2": 8}, 14),
                ("Gw36", {"c_1'": 6}, 16), ("I", {"h_3'": 4}, 64),
                ("P5", {"h": 5}, 1), ("P1^4", {"alpha_1": 1, "alpha_2": 1,
                                               "alpha_3": 1, "alpha_4": 1}, 1),
                ("Pi", {"sigma": 1, "h": 3}, 1))
# per pass: 85 of each integral kind per ring, 26 Segre and 14 character
# queries per Chern ring (8% Chern calculus)
WARM_QUOTAS = ([(("combo", r), 85) for r in WARM_RINGS]
               + [(("multilinear", r), 85) for r in WARM_RINGS]
               + [(("segre", r), 26) for r in CHERN_RINGS]
               + [(("character", r), 14) for r in CHERN_RINGS])


def shapes_of(rings):
    """(names, weights, dim) per ring: all the stream generators need."""
    return {n: (r.sig.names, r.sig.weights, r.dim) for n, r in rings.items()}


def intersect_stream(seed, shapes):
    """The seeded query stream: plain data, no program objects."""
    rng = random.Random(seed)
    ops = []
    for kind, ring in schedule(rng, WARM_QUOTAS):
        _, weights, dim = shapes[ring]
        if kind == "combo":
            # sum of c_k times a product of generators of top degree
            terms = []
            for _ in range(rng.randint(1, 4)):
                mono = rng.choice(oracle.monomials(weights, dim))
                factors = [i for i, e in enumerate(mono) for _ in range(e)]
                rng.shuffle(factors)
                terms.append((rand_coeff(rng), tuple(factors)))
            ops.append(("combo", ring, tuple(terms)))
        elif kind == "multilinear":
            # product of random homogeneous classes, degrees summing to dim
            factors, left = [], dim
            while left:
                d = rng.randint(1, min(3, left))
                factors.append(rand_homogeneous(rng, weights, d))
                left -= d
            ops.append(("multilinear", ring, tuple(factors)))
        else:
            rank = rng.randint(2, 4)
            chern = tuple(rand_homogeneous(rng, weights, i, terms=2)
                          for i in range(1, rank + 1))
            if kind == "segre":
                k = rng.randint(1, dim)
                comp = rng.choice(oracle.monomials(weights, dim - k))
                ops.append(("segre", ring, rank, chern, k, comp))
            else:
                ops.append(("character", ring, rank, chern))
    return ops


class IntersectWarm:
    name = "intersect-warm"

    def __init__(self, mods, seed):
        self.mods = mods
        self.seed = seed
        self.rings = {}
        self.todd = oracle.todd_projective_space(5)

    def setup(self):
        """Build every catalog ring the stream needs, from a cold cache."""
        clear_catalog(self.mods)
        cat = self.mods["rings"].catalog
        self.rings = {n: cat(n) for n in WARM_RINGS}

    def prepare(self):
        """After a set-up: the stream, the oracle tables and the program inputs.

        Returns (anchor problems, inputs).
        """
        self.shapes = shapes_of(self.rings)
        self.ops = intersect_stream(self.seed, self.shapes)
        self.tables = {n: table_of(self.mods, r) for n, r in self.rings.items()}
        problems = []
        for ring, expo, want in WARM_ANCHORS:
            names = self.shapes[ring][0]
            mono = tuple(expo.get(v, 0) for v in names)
            if self.tables[ring].get(mono) != want:
                problems.append("anchor %s %s = %s, want %s"
                                % (ring, expo, self.tables[ring].get(mono), want))
        h2 = {tuple(int(i == j) for j in range(4)): Fraction(1) for i in range(4)}
        cube = oracle.mul(oracle.mul(h2, h2), h2)
        if oracle.pair(cube, self.tables["FB"]) != 24:
            problems.append("anchor FB h_2^3 != 24")
        if not oracle.anchor_todd(5, self.todd):
            problems.append("Todd series of P5 fails chi(O(d)) = C(d+5, 5)")
        return problems, self._inputs()

    def _inputs(self):
        Poly = self.mods["poly"].Poly
        out = []
        for op in self.ops:
            kind, ring = op[0], self.rings[op[1]]
            sig = ring.sig
            if kind == "combo":
                out.append(None)
            elif kind == "multilinear":
                out.append([Poly(sig, f) for f in op[2]])
            elif kind == "segre":
                out.append(([Poly(sig, c) for c in op[3]],
                            Poly(sig, {op[5]: 1})))
            else:
                weights, dim = sig.weights, ring.dim
                parts = oracle.character(op[2], op[3], weights, dim)
                total = {}
                for p in parts:
                    total = oracle.add(total, p)
                out.append(Poly(sig, total))
        return out

    def run_op(self, op, data):
        """The timed call into the program; returns its raw answer."""
        kind, ring = op[0], self.rings[op[1]]
        if kind == "combo":
            acc = ring.zero()
            gens = [ring.var(v) for v in ring.sig.names]
            for coeff, factors in op[2]:
                x = gens[factors[0]]
                for i in factors[1:]:
                    x = x * gens[i]
                acc = acc + coeff * x
            return ring.integrate(acc)
        if kind == "multilinear":
            x = ring.cls(data[0])
            for f in data[1:]:
                x = x * ring.cls(f)
            return ring.integrate(x)
        bundles = self.mods["bundles"]
        if kind == "segre":
            chern, comp = data
            e = bundles.BundleClass(ring, op[2], chern)
            s = bundles.segre_component(e, op[4])
            return ring.integrate(s * ring.cls(comp))
        ch = ring.cls(data)
        e = bundles.chern_from_character(ring, ch)
        chi = bundles.chi_of_character(ring, ch) if op[1] == "P5" else None
        return e, chi

    def check(self, op, answer):
        """True if the answer matches the reference expansion."""
        kind, name = op[0], op[1]
        _, weights, dim = self.shapes[name]
        table = self.tables[name]
        n = len(weights)
        if kind == "combo":
            want = Fraction(0)
            for coeff, factors in op[2]:
                mono = [0] * n
                for i in factors:
                    mono[i] += 1
                want += coeff * table[tuple(mono)]
            return answer == want
        if kind == "multilinear":
            prod = oracle.const(n)
            for f in op[2]:
                prod = oracle.mul(prod, f)
            return answer == oracle.pair(prod, table)
        if kind == "segre":
            s = oracle.segre_parts(op[3], weights, dim)[op[4]]
            return answer == oracle.pair(oracle.mul(s, {op[5]: 1}), table)
        e, chi = answer
        if e.rank != op[2]:
            return False
        for k in range(1, dim + 1):
            want = op[3][k - 1] if k <= len(op[3]) else {}
            diff = oracle.add(dict(e.c(k).rep.terms), want, -1)
            for m in oracle.monomials(weights, dim - k):
                if oracle.pair(oracle.mul(diff, {m: 1}), table):
                    return False
        if name == "P5":
            parts = oracle.character(op[2], op[3], weights, dim)
            coeffs = [p.get((k,), Fraction(0)) for k, p in enumerate(parts)]
            return chi == oracle.chi_projective_space(5, coeffs, self.todd)
        return True


# ---------------------------------------------------------------------------
# ring-churn: freshly built derived rings, a few integrals each


CHURN_BASES = ("P5", "G26", "Gw36", "P1^3")
CHURN_FACTORS = (("P1u", 1, "u"), ("P2v", 2, "v"), ("P3w", 3, "w"))
CHURN_PRODUCTS = (("P1u", "G26"), ("P2v", "Gw36"), ("P3w", "P1^3"),
                  ("P1u", "P5"), ("P2v", "P1^3"), ("P1u", "Gw36"),
                  ("P3w", "P5"))
# per pass: 75 bundles per base, 150 blow-ups, 21 rings per product pair
CHURN_QUOTAS = ([(("bundle", b), 75) for b in CHURN_BASES]
                + [(("blowup", None), 150)]
                + [(("product", pair), 21) for pair in CHURN_PRODUCTS])


def churn_stream(seed, shapes):
    rng = random.Random(seed)
    ops = []
    for kind, which in schedule(rng, CHURN_QUOTAS):
        if kind == "bundle":
            _, weights, dim = shapes[which]
            rank = rng.randint(2, 3)
            chern = tuple(rand_homogeneous(rng, weights, i, terms=2)
                          for i in range(1, min(rank, dim) + 1))
            queries = [(dim, (0,) * len(weights))]
            for _ in range(3):
                k = rng.randint(0, dim)
                queries.append((k, rng.choice(oracle.monomials(weights, dim - k))))
            ops.append(("bundle", which, rank, chern, tuple(queries)))
        elif kind == "blowup":
            curve = (0, 0, 0)
            while curve == (0, 0, 0):
                curve = tuple(rng.randint(0, 3) for _ in range(3))
            genus = rng.randint(0, 2)
            cubes = tuple((tuple(rng.randint(-3, 3) for _ in range(3)),
                           rng.randint(-2, 2)) for _ in range(3))
            divisor = tuple(rng.randint(-3, 3) for _ in range(3))
            ops.append(("blowup", curve, genus, cubes, divisor))
        else:
            a, b = which
            powers = []
            for _ in range(2):
                powers.append(tuple(
                    tuple(rng.choice((-2, -1, 1, 2, 3)) if w == 1 else 0
                          for w in shapes[r][1]) for r in (a, b)))
            monos = tuple((rng.choice(oracle.monomials(shapes[a][1], shapes[a][2])),
                           rng.choice(oracle.monomials(shapes[b][1], shapes[b][2])))
                          for _ in range(2))
            ops.append(("product", a, b, tuple(powers), monos))
    return ops


class RingChurn:
    name = "ring-churn"

    def __init__(self, mods, seed):
        self.mods = mods
        self.seed = seed
        self.rings = {}

    def setup(self):
        """Build the base and factor rings the stream needs, from a cold cache."""
        clear_catalog(self.mods)
        rings = self.mods["rings"]
        self.rings = {n: rings.catalog(n) for n in CHURN_BASES}
        for label, n, var in CHURN_FACTORS:
            self.rings[label] = rings.projective_space(n, var=var)

    def prepare(self):
        """After a set-up: the stream, the oracle tables and the program inputs."""
        self.shapes = shapes_of(self.rings)
        self.ops = churn_stream(self.seed, self.shapes)
        self.tables = {n: table_of(self.mods, r) for n, r in self.rings.items()}
        problems = []
        for name, mono, want in (("P5", (5,), 1), ("G26", (8, 0), 14),
                                 ("Gw36", (6, 0, 0), 16),
                                 ("P1^3", (1, 1, 1), 1), ("P3w", (3,), 1)):
            if self.tables[name].get(mono) != want:
                problems.append("anchor %s %s != %s" % (name, mono, want))
        return problems, self._inputs()

    def _inputs(self):
        Poly = self.mods["poly"].Poly
        out = []
        for op in self.ops:
            if op[0] == "bundle":
                sig = self.rings[op[1]].sig
                out.append([Poly(sig, c) for c in op[3]])
            elif op[0] == "blowup":
                sig = self.rings["P1^3"].sig
                d = op[1]
                out.append(Poly(sig, {(0, 1, 1): d[0], (1, 0, 1): d[1],
                                      (1, 1, 0): d[2]}))
            else:
                out.append(None)
        return out

    def run_op(self, op, data):
        rings = self.mods["rings"]
        Poly = self.mods["poly"].Poly
        kind = op[0]
        if kind == "bundle":
            base, rank = self.rings[op[1]], op[2]
            pb = rings.projective_bundle(base, data, "z")
            z = pb.var("z")
            out = []
            for k, mono in op[4]:
                lifted = pb.cls(Poly(pb.sig, {(0,) + mono: 1}))
                out.append(pb.integrate(z ** (rank - 1 + k) * lifted))
            return out
        if kind == "blowup":
            bl = rings.blowup_threefold_along_curve(self.rings["P1^3"], data, op[2])
            alphas = [bl.var("alpha_%d" % i) for i in (1, 2, 3)]
            e = bl.var("e")
            out = []
            for lin, b in op[3]:
                x = sum((c * a for c, a in zip(lin, alphas)), bl.zero()) - b * e
                out.append(bl.integrate(x ** 3))
            d = sum((c * a for c, a in zip(op[4], alphas)), bl.zero())
            out.append(bl.integrate(d * e * e))
            return out
        a, b = self.rings[op[1]], self.rings[op[2]]
        prod = rings.product_ring(a, b)
        gens = [prod.var(v) for v in prod.sig.names]
        out = []
        for la, lb in op[3]:
            x = sum((c * g for c, g in zip(la + lb, gens) if c), prod.zero())
            out.append(prod.integrate(x ** prod.dim))
        for ma, mb in op[4]:
            out.append(prod.integrate(prod.cls(Poly(prod.sig, {ma + mb: 1}))))
        return out

    def check(self, op, answer):
        kind = op[0]
        if kind == "bundle":
            _, weights, dim = self.shapes[op[1]]
            table = self.tables[op[1]]
            h = oracle.pushforward_parts(op[3], weights, dim)
            want = [oracle.pair(oracle.mul(h[k], {m: 1}), table)
                    for k, m in op[4]]
            return answer == want
        if kind == "blowup":
            curve, genus = op[1], op[2]
            want = [oracle.blowup_integral(lin, b, curve, genus)
                    for lin, b in op[3]]
            want.append(-sum(c * d for c, d in zip(op[4], curve)))
            return answer == want
        a, b = op[1], op[2]
        (_, wa, da), (_, wb, db) = self.shapes[a], self.shapes[b]
        want = []
        for la, lb in op[3]:
            pa = self._power(la, wa, da, self.tables[a])
            pb = self._power(lb, wb, db, self.tables[b])
            want.append(comb(da + db, da) * pa * pb)
        for ma, mb in op[4]:
            want.append(self.tables[a][ma] * self.tables[b][mb])
        return answer == want

    @staticmethod
    def _power(lin, weights, dim, table):
        n = len(weights)
        linear = {tuple(int(i == j) for j in range(n)): Fraction(c)
                  for i, c in enumerate(lin) if c}
        acc = oracle.const(n)
        for _ in range(dim):
            acc = oracle.mul(acc, linear)
        return oracle.pair(acc, table)


# ---------------------------------------------------------------------------
# verify-all-cold: the north-star command, one fresh process per op


VERIFY_ARGS = ("run", "--all", "--slow", "--format", "json")
CHILD_TIMEOUT = 150


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


class ChildRunner:
    """Runs program processes strictly one at a time and records when."""

    def __init__(self):
        self.intervals = []
        self._busy = False

    def run(self, argv):
        if self._busy:
            raise RuntimeError("a benchmark child process is already running")
        self._busy = True
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT)
        finally:
            end = time.perf_counter()
            self._busy = False
            self.intervals.append((start, end))
        return proc, end - start


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def strip_report(doc):
    """The report without timing fields and seed echoes."""
    out = {k: v for k, v in doc.items() if k != "seed"}
    out["checks"] = [{k: v for k, v in c.items() if k not in ("millis", "seed")}
                     for c in doc["checks"]]
    return out


def report_digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def verify_failures(proc, seed, golden):
    """Checks of one verify run that failed or differ from the golden report."""
    total = len(golden["report"]["checks"])
    try:
        doc = json.loads(proc.stdout)
        stripped = strip_report(doc)
    except (ValueError, KeyError, TypeError, AttributeError):
        return total, "unparseable report (exit %d): %s" % (
            proc.returncode, proc.stderr.strip()[-300:])
    if (proc.returncode == 0 and doc.get("summary", {}).get("ok")
            and report_digest(stripped) == golden["digest"]
            and doc.get("seed") == seed
            and all(c.get("seed") == seed for c in doc["checks"])):
        return 0, None
    want = {c["name"]: c for c in golden["report"]["checks"]}
    got = {c.get("name"): c for c in stripped["checks"]}
    bad = sorted(n for n in want if got.get(n) != want[n])
    return max(len(bad), 1), "exit %d, differing checks: %s" % (
        proc.returncode, ", ".join(bad) or "none (seed echo or summary differs)")


def verify_command(seed):
    return [sys.executable, "-m", "chowcalc.cli", *VERIFY_ARGS, "--seed", str(seed)]


def list_command():
    return [sys.executable, "-m", "chowcalc.cli", "list"]
