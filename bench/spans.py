"""Span tracing for the traced benchmark run.

Wrappers are installed only for the traced run, at the names the program
actually looks up: module globals that other modules call (`reduce_poly`,
`s_polynomial`), names bound separately by `from ... import` (`rank` and
`det` in `checks` and `pencil`, the bundle functions in `checks`), and
class methods for classes imported by name (`GroebnerBasis.__init__`,
`ChowClass.__mul__`, `ChowRing.integrate`).  Spans (name, start, end,
parent) stay in memory; self time is derived from them after the run.
"""

from __future__ import annotations

import json
import os
import time

# signature variable names -> Groebner site label
B_NAMES = ("h_3", "a_1", "a_2", "a_3", "a_4")
GROEBNER_SITES = {
    B_NAMES: "B",
    ("h_2", "c_2"): "G26",
    ("alpha_1", "alpha_2", "alpha_3", "alpha_4"): "P1x4",
    ("h",) + B_NAMES: "projE1",
}
SITE_ORDER = ("B", "G26", "P1x4", "projE1", "incidence", "minors", "other")

BUNDLE_FUNCTIONS = ("whitney_sum", "whitney_quotient", "dual", "twist",
                    "segre", "segre_component", "wedge2_rank3",
                    "chern_character", "chern_from_character", "todd_class",
                    "tangent_bundle", "hrr_chi", "chi_of_character",
                    "grr_push_curve")
PENCIL_FUNCTIONS = {"congruence_model_check": "pencil.congruence",
                    "minors_locus_hilbert": "pencil.minors_locus",
                    "constant_rank_certificate": "pencil.certificate"}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index]
        self._stack = []
        self._undo = []
        self._sites = dict(GROEBNER_SITES)

    # recording ------------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def _wrap_groebner_init(self, init):
        sites = self._sites

        def traced(gb, generators, precomputed=False):
            gens = list(generators)
            if precomputed:
                return init(gb, gens, precomputed)
            names = next((g.sig.names for g in gens if not g.is_zero()), ())
            idx = self._open("poly.groebner." + sites.get(names, "other"))
            try:
                return init(gb, gens, precomputed)
            finally:
                self._close(idx)
        return traced

    # installation ---------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, modules):
        """Patch the program; `modules` maps short names to imported modules."""
        poly, rings, bundles = modules["poly"], modules["rings"], modules["bundles"]
        linalg, pencil, checks = modules["linalg"], modules["pencil"], modules["checks"]
        self._sites[pencil.CONGRUENCE_SIG.names] = "incidence"
        self._sites[pencil.POINT_SIG.names] = "minors"

        self._patch(poly, "reduce_poly", self.wrap("poly.reduce", poly.reduce_poly))
        self._patch(poly, "s_polynomial", self.wrap("poly.spoly", poly.s_polynomial))
        mul = self.wrap("poly.mul", poly.Poly.__mul__)
        self._patch(poly.Poly, "__mul__", mul)
        self._patch(poly.Poly, "__rmul__", mul)
        self._patch(poly.GroebnerBasis, "__init__",
                    self._wrap_groebner_init(poly.GroebnerBasis.__init__))

        cmul = self.wrap("rings.mul", rings.ChowClass.__mul__)
        self._patch(rings.ChowClass, "__mul__", cmul)
        self._patch(rings.ChowClass, "__rmul__", cmul)
        self._patch(rings.ChowRing, "integrate",
                    self.wrap("rings.integrate", rings.ChowRing.integrate))
        self._patch(rings.ChowRing, "__init__",
                    self.wrap("rings.construct", rings.ChowRing.__init__))

        for name in BUNDLE_FUNCTIONS:
            wrapped = self.wrap("bundles", getattr(bundles, name))
            self._patch(bundles, name, wrapped)
            if name in checks.__dict__:
                self._patch(checks, name, wrapped)

        for name in ("rank", "det"):
            wrapped = self.wrap("linalg." + name, getattr(linalg, name))
            for owner in (linalg, checks, pencil):
                self._patch(owner, name, wrapped)
        for name, label in PENCIL_FUNCTIONS.items():
            self._patch(pencil, name, self.wrap(label, getattr(pencil, name)))

        run_check = checks.run_check
        tracer = self

        def traced_run_check(check, seed=checks.DEFAULT_SEED):
            name = check if isinstance(check, str) else check.name
            idx = tracer._open("checks." + name)
            try:
                return run_check(check, seed)
            finally:
                tracer._close(idx)
        self._patch(checks, "run_check", traced_run_check)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # analysis -------------------------------------------------------------

    def totals(self):
        """{name: [calls, inclusive seconds, self seconds]}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            t = out.setdefault(name, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child[i]
        return out

    def write(self, path):
        """Write the spans as JSON: a name table and [name, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[ids[n], round(s - t0, 7), round(e - t0, 7), p]
                for n, s, e, p in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))


def layer_metrics(totals, catalog_info, ring_info):
    """Per-layer metrics (without checks.* and trace.*) from span totals."""
    def get(name):
        return totals.get(name, [0, 0.0, 0.0])

    ms = 1000.0
    m = {}
    groebner = [(n, t) for n, t in totals.items() if n.startswith("poly.groebner.")]
    m["poly.groebner.calls"] = sum(t[0] for _, t in groebner)
    m["poly.groebner.ms"] = sum(t[1] for _, t in groebner) * ms
    for site in SITE_ORDER:
        m["poly.groebner.%s.ms" % site] = get("poly.groebner." + site)[1] * ms
    m["poly.spoly.calls"] = get("poly.spoly")[0]
    reduce_calls, _, reduce_self = get("poly.reduce")
    m["poly.reduce.calls"] = reduce_calls
    m["poly.reduce.self_ms"] = reduce_self * ms
    m["poly.reduce.us_per_call"] = reduce_self * 1e6 / reduce_calls if reduce_calls else 0.0
    m["poly.mul.calls"] = get("poly.mul")[0]
    m["poly.mul.self_ms"] = get("poly.mul")[2] * ms
    rmul = get("rings.mul")[0]
    m["rings.mul.calls"] = rmul
    m["rings.mul.self_ms"] = get("rings.mul")[2] * ms
    m["rings.integrate.calls"] = get("rings.integrate")[0]
    m["rings.integrate.self_ms"] = get("rings.integrate")[2] * ms
    m["rings.reduce_per_mul"] = reduce_calls / rmul if rmul else 0.0
    m["rings.construct.calls"] = get("rings.construct")[0]
    m["rings.construct.ms"] = get("rings.construct")[1] * ms
    m["rings.catalog.builds"] = catalog_info.misses
    m["rings.catalog.hits"] = catalog_info.hits + ring_info.hits
    m["bundles.calls"] = get("bundles")[0]
    m["bundles.self_ms"] = get("bundles")[2] * ms
    m["linalg.rank.calls"] = get("linalg.rank")[0]
    m["linalg.rank.ms"] = get("linalg.rank")[1] * ms
    m["linalg.det.ms"] = get("linalg.det")[1] * ms
    for label in PENCIL_FUNCTIONS.values():
        m[label + ".ms"] = get(label)[1] * ms
    return m
