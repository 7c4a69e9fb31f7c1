"""chowcalc benchmark: one workload per run, seeded, checked, stdlib only.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  With --trace 0 it measures the
end-to-end metrics for --seconds seconds; with --trace 1 it makes a
separate run of fixed size with span wrappers installed and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
only if every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import workloads as wl
from spans import Tracer, layer_metrics

WORKLOADS = ("verify-all-cold", "intersect-warm", "ring-churn")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
              ("peak_rss_mb", "MB"))


def git_state():
    """(commit, dirty) of the checkout, or (None, None) outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(wl.ROOT))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if head.returncode != 0:
            return None, None
        status = subprocess.run(["git", "--no-optional-locks", "status", "--porcelain"],
                                cwd=wl.ROOT, env=env, capture_output=True,
                                text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def stamp(args, order):
    import chowcalc
    commit, dirty = git_state()
    return {"chowcalc": chowcalc.__version__,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "git_commit": commit, "git_dirty": dirty,
            "workload_order": list(order)}


def self_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Result:
    def __init__(self, name):
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.metrics = {}     # name -> value
        self.detail = {}

    def fail(self, count, message):
        self.failed += count
        if message and len(self.errors) < 5:
            self.errors.append(message)


class SetupSampler:
    """Times set-ups in bursts spread over the run (see SETUP_PLAN)."""

    def __init__(self, name, setup):
        self.total, self.burst = wl.SETUP_PLAN[name]
        self.setup = setup
        self.times = []

    def burst_now(self):
        """One burst; returns the wall time it took."""
        start = time.perf_counter()
        for _ in range(min(self.burst, self.total - len(self.times))):
            t0 = time.perf_counter()
            self.setup()
            self.times.append(time.perf_counter() - t0)
        return time.perf_counter() - start


# ---------------------------------------------------------------------------
# in-process workloads (intersect-warm, ring-churn)


def one_op(work, op, data, res, latencies):
    start = time.perf_counter()
    try:
        answer = work.run_op(op, data)
    except Exception as exc:  # a crash is a failed op, never a stopped run
        latencies.append(time.perf_counter() - start)
        res.fail(1, "%s raised %s: %s" % (op[:2], type(exc).__name__, exc))
        return latencies[-1]
    elapsed = time.perf_counter() - start
    latencies.append(elapsed)
    if not work.check(op, answer):
        res.fail(1, "%s answered %r" % (op[:2], answer))
    return elapsed


def run_pass(work, inputs, res, latencies, deadline=None):
    """One pass over the stream; returns its op time, or None if cut short."""
    total = 0.0
    for op, data in zip(work.ops, inputs):
        if deadline is not None and time.perf_counter() >= deadline:
            return None
        res.attempted += 1
        total += one_op(work, op, data, res, latencies)
    return total


def prepare(work, res):
    """Stream, oracle and inputs after the first set-up; anchors must hold."""
    problems, inputs = work.prepare()
    for problem in problems:
        res.fail(1, problem)
    res.detail["stream_ops"] = len(work.ops)
    res.detail["stream_digest"] = wl.stream_digest(work.ops)
    return inputs


def in_process(cls, mods, args):
    work = cls(mods, args.seed)
    res = Result(work.name)
    if args.trace:
        return traced_in_process(work, mods, res, args.seed)
    setups = SetupSampler(work.name, work.setup)
    setups.burst_now()
    inputs = prepare(work, res)
    latencies, passes = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        wall = run_pass(work, inputs, res, latencies, deadline if passes else None)
        if wall is None:
            break
        passes.append(wall)
        deadline += setups.burst_now()
    p50, tail, tail_label, n = wl.latency_summary(latencies, len(work.ops))
    res.metrics = {
        "setup_s": statistics.median(setups.times),
        "wall_s": statistics.median(passes),
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": p50 * 1000.0,
        "latency_tail_ms": tail * 1000.0,
        "peak_rss_mb": self_rss_mb(),
    }
    res.detail.update(passes=len(passes), latency_tail=tail_label, samples=n,
                      setup_samples=len(setups.times))
    return res


def zero_check_metrics(mods, metrics):
    """The checks layer is not run by this workload: it spends 0 ms there."""
    for name in mods["checks"].check_names():
        metrics["checks.%s.cold_ms" % name] = 0.0
        metrics["checks.%s.warm_ms" % name] = 0.0


def traced_in_process(work, mods, res, seed):
    """Fixed-size traced run: one set-up and one pass, so counts repeat."""
    work.setup()
    inputs = prepare(work, res)
    untraced = run_pass(work, inputs, res, [])
    tracer = Tracer()
    tracer.install(mods)
    try:
        work.setup()
        traced = run_pass(work, inputs, res, [])
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(wl.ROOT, ".bench_out",
                              "spans-%s-%d.json" % (work.name, seed)))
    res.metrics = layer_metrics(tracer.totals(),
                                mods["rings"].catalog.cache_info(),
                                mods["checks"]._ring.cache_info())
    zero_check_metrics(mods, res.metrics)
    res.metrics["trace.overhead_s"] = traced - untraced
    res.detail.update(untraced_wall_s=untraced, traced_wall_s=traced,
                      spans=len(tracer.spans))
    return res


# ---------------------------------------------------------------------------
# verify-all-cold: fresh program processes, strictly one at a time

CHILD = os.path.join(wl.BENCH_DIR, "child.py")


def checked_verify(runner, seed, golden, res):
    proc, wall = runner.run(wl.verify_command(seed))
    res.attempted += len(golden["report"]["checks"])
    res.fail(*wl.verify_failures(proc, seed, golden))
    return wall


def child_json(runner, argv, res):
    """Run bench/child.py; its last output line is JSON (None on a crash)."""
    proc, wall = runner.run([sys.executable, CHILD] + argv)
    try:
        return json.loads(proc.stdout.splitlines()[-1]), wall
    except (IndexError, ValueError):
        res.fail(1, "child %s failed (exit %d): %s"
                 % (argv, proc.returncode, proc.stderr.strip()[-300:]))
        return None, wall


def verify_all_cold(mods, args, runner=None):
    runner = runner or wl.ChildRunner()
    golden = wl.load_golden()
    res = Result("verify-all-cold")
    if args.trace:
        return traced_verify(mods, args, runner, golden, res)
    names = sorted(c["name"] for c in golden["report"]["checks"])

    def cold_list():
        proc, _ = runner.run(wl.list_command())
        listed = sorted(line.split()[0] for line in proc.stdout.splitlines()
                        if line.strip())
        if proc.returncode != 0 or listed != names:
            res.fail(1, "verify list exit %d listed %d checks"
                     % (proc.returncode, len(listed)))

    setups = SetupSampler(res.name, cold_list)
    setups.burst_now()
    walls = []
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        walls.append(checked_verify(runner, args.seed, golden, res))
        deadline += setups.burst_now()
    p50, tail, tail_label, n = wl.latency_summary(walls, 1)
    res.metrics = {
        "setup_s": statistics.median(setups.times),
        "wall_s": statistics.median(walls),
        "ops_per_s": len(walls) / sum(walls),
        "latency_p50_ms": p50 * 1000.0,
        "latency_tail_ms": tail * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    res.detail.update(processes=len(walls), latency_tail=tail_label, samples=n,
                      setup_samples=len(setups.times))
    return res


def traced_verify(mods, args, runner, golden, res):
    untraced = checked_verify(runner, args.seed, golden, res)
    doc, traced = child_json(runner, ["traced", str(args.seed)], res)
    res.attempted += len(golden["report"]["checks"])
    metrics = {}
    if doc is not None:
        report = SimpleNamespace(stdout=doc["report"], returncode=doc["exit"],
                                 stderr="")
        res.fail(*wl.verify_failures(report, args.seed, golden))
        metrics = doc["metrics"]
    else:  # child_json counted one failure; the whole run is unverified
        res.fail(len(golden["report"]["checks"]) - 1, None)
    for name in mods["checks"].check_names():
        res.attempted += 1
        cold, _ = child_json(runner, ["cold", name, str(args.seed)], res)
        if cold is not None and not cold["passed"]:
            res.fail(1, "check %s failed in a fresh process" % name)
        metrics["checks.%s.cold_ms" % name] = cold["ms"] if cold else 0.0
    warm, _ = child_json(runner, ["warm", str(args.seed)], res)
    res.attempted += 1
    if warm is not None and not warm["passed"]:
        res.fail(1, "a check failed in the warm process")
    for name in mods["checks"].check_names():
        metrics["checks.%s.warm_ms" % name] = warm["ms"][name] if warm else 0.0
    metrics["trace.overhead_s"] = traced - untraced
    res.metrics = metrics
    res.detail.update(untraced_wall_s=untraced, traced_wall_s=traced)
    return res


# ---------------------------------------------------------------------------
# output


def layer_unit(name):
    if name.endswith(".calls") or name.startswith("rings.catalog."):
        return "count"
    if name.endswith("ms"):
        return "ms"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def emit(results, trace):
    units = dict(END_TO_END)
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res.name + "."
        for name, value in res.metrics.items():
            unit = layer_unit(name) if trace else units[name]
            print("metric %s %s = %.6g %s" % (res.name, name, value, unit))
            metrics[prefix + name] = {"value": value, "unit": unit}
        ratio = res.failed / res.attempted if res.attempted else 1.0
        print("metric %s failed_ops_ratio = %.6g ratio (%d of %d)"
              % (res.name, ratio, res.failed, res.attempted))
        print("detail %s %s" % (res.name, json.dumps(res.detail, sort_keys=True)))
        for err in res.errors:
            print("error %s %s" % (res.name, err))
    attempted = sum(r.attempted for r in results)
    failed = min(sum(r.failed for r in results), attempted)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return failed == 0 and attempted > 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(wl.SRC, "chowcalc", "__init__.py")):
        print("no chowcalc sources under %s; run from the root of a checkout"
              % wl.SRC, file=sys.stderr)
        return 2
    order = WORKLOADS if args.workload == "all" else (args.workload,)
    mods = wl.program()
    print("stamp " + json.dumps(stamp(args, order), sort_keys=True))
    runners = {"verify-all-cold": verify_all_cold,
               "intersect-warm": lambda m, a: in_process(wl.IntersectWarm, m, a),
               "ring-churn": lambda m, a: in_process(wl.RingChurn, m, a)}
    results = [runners[name](mods, args) for name in order]
    return 0 if emit(results, args.trace) else 1


if __name__ == "__main__":
    sys.exit(main())
