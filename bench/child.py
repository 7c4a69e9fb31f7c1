"""Child-process entry points for the verify-all-cold workload.

    python3 bench/child.py cold <check> <seed>    one check in a fresh process
    python3 bench/child.py warm <seed>            every check after a warm-up pass
    python3 bench/child.py traced <seed>          the full verify run, traced

Each prints one JSON line on standard output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

from workloads import ROOT, VERIFY_ARGS, program
from spans import Tracer, layer_metrics


def timed_check(checks, name, seed):
    start = time.perf_counter()
    result = checks.run_check(name, seed)
    return (time.perf_counter() - start) * 1000.0, result.passed


def cold(name, seed):
    ms, passed = timed_check(program()["checks"], name, seed)
    return {"ms": ms, "passed": passed}


def warm(seed):
    checks = program()["checks"]
    names = checks.check_names()
    first = [timed_check(checks, n, seed)[1] for n in names]
    again = {n: timed_check(checks, n, seed) for n in names}
    return {"ms": {n: v[0] for n, v in again.items()},
            "passed": all(first) and all(v[1] for v in again.values())}


def traced(seed):
    mods = program()
    from chowcalc import cli
    tracer = Tracer()
    tracer.install(mods)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(VERIFY_ARGS) + ["--seed", str(seed)])
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(ROOT, ".bench_out", "spans-verify-all-cold-%d.json" % seed))
    metrics = layer_metrics(tracer.totals(), mods["rings"].catalog.cache_info(),
                            mods["checks"]._ring.cache_info())
    return {"exit": code, "report": out.getvalue(), "metrics": metrics}


def main(argv):
    mode = argv[0]
    if mode == "cold":
        doc = cold(argv[1], int(argv[2]))
    elif mode == "warm":
        doc = warm(int(argv[1]))
    elif mode == "traced":
        doc = traced(int(argv[1]))
    else:
        print("unknown mode %r" % mode, file=sys.stderr)
        return 2
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
