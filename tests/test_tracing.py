"""The benchmark's span tracer still fits the program's names.

`bench/spans.py` times layers by patching module globals and class methods
by name.  A kernel change that drops or renames one of those names fails
here, not only in a traced benchmark run.  The tracer is loaded from
`bench/` as it is; nothing there is edited.
"""

import importlib.util
import os

from chowcalc import bundles, checks, linalg, pencil, poly, rings

SPANS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "bench", "spans.py")
MODULES = {"poly": poly, "rings": rings, "bundles": bundles,
           "linalg": linalg, "pencil": pencil, "checks": checks}
OWNERS = list(MODULES.values()) + [poly.Poly, poly.GroebnerBasis,
                                   rings.ChowClass, rings.ChowRing]


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_uninstalls():
    spans = load_spans()
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = spans.Tracer()
    tracer.install(MODULES)
    try:
        ring = rings.projective_space(2)
        assert ring.integrate(ring.var("h") ** 2) == 1
        assert pencil.minors_locus_hilbert(cap=3).hilbert_values == [1, 6, 7, 10]
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in OWNERS] == before
    totals = tracer.totals()
    for name in ("poly.groebner.other", "poly.groebner.minors",
                 "poly.reduce", "rings.construct", "rings.mul",
                 "rings.integrate", "pencil.minors_locus"):
        assert totals[name][0] >= 1, name
    metrics = spans.layer_metrics(totals, rings.catalog.cache_info(),
                                  checks._ring.cache_info())
    assert metrics["poly.groebner.calls"] == 2
