"""Self-tests of the benchmark itself (not of chowcalc).

    python3 bench/selftest.py

Takes about a minute: it runs one cold verify process and two traced
passes of each in-process workload.
"""

from __future__ import annotations

import json
import os
import re
import sys
import unittest
from fractions import Fraction
from types import SimpleNamespace

import oracle
import run
import workloads as wl
from spans import Tracer, layer_metrics

MODS = wl.program()
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def benchmark_spec():
    with open(os.path.join(wl.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def prepared(cls, seed):
    work = cls(MODS, seed)
    work.setup()
    problems, inputs = work.prepare()
    assert not problems, problems
    return work, inputs


class StreamTests(unittest.TestCase):
    def test_same_seed_same_stream(self):
        for cls in (wl.IntersectWarm, wl.RingChurn):
            a, _ = prepared(cls, 11)
            b, _ = prepared(cls, 11)
            c, _ = prepared(cls, 12)
            self.assertEqual(wl.stream_digest(a.ops), wl.stream_digest(b.ops))
            self.assertNotEqual(wl.stream_digest(a.ops), wl.stream_digest(c.ops))
        self.assertEqual(wl.verify_command(5), wl.verify_command(5))


def perturb(answer):
    """A wrong copy of an answer; the program's objects are left alone."""
    if isinstance(answer, Fraction):
        return answer + 1
    if isinstance(answer, list):
        return [answer[0] + 1] + answer[1:]
    e, chi = answer
    terms = dict(e.c(1).rep.terms)
    mono = next(iter(terms)) if terms else (1,) + (0,) * (len(e.ring.sig) - 1)
    terms[mono] = terms.get(mono, 0) + 1
    c1 = SimpleNamespace(rep=SimpleNamespace(terms=terms))
    fake = SimpleNamespace(rank=e.rank,
                           c=lambda k: c1 if k == 1 else e.c(k))
    return fake, chi


class OracleTests(unittest.TestCase):
    def test_oracle_rejects_perturbed_answers(self):
        for cls in (wl.IntersectWarm, wl.RingChurn):
            work, inputs = prepared(cls, 3)
            seen = set()
            for op, data in zip(work.ops, inputs):
                key = (op[0], op[1] if op[0] != "blowup" else None)
                if key in seen:
                    continue
                seen.add(key)
                answer = work.run_op(op, data)
                self.assertTrue(work.check(op, answer), op)
                self.assertFalse(work.check(op, perturb(answer)), op)
            self.assertGreaterEqual(len(seen), 6)

    def test_todd_anchor(self):
        self.assertTrue(oracle.anchor_todd(5, oracle.todd_projective_space(5)))
        self.assertFalse(oracle.anchor_todd(5, [Fraction(1)] * 6))

    def test_verify_gate_rejects_changed_report(self):
        golden = wl.load_golden()
        doc = json.loads(json.dumps(golden["report"]))
        doc["seed"] = 9
        for c in doc["checks"]:
            c["seed"], c["millis"] = 9, 1

        def proc(d, code=0):
            return SimpleNamespace(stdout=json.dumps(d), returncode=code, stderr="")

        self.assertEqual(wl.verify_failures(proc(doc), 9, golden), (0, None))
        self.assertEqual(wl.verify_failures(proc(doc, 1), 9, golden)[0], 1)
        self.assertEqual(wl.verify_failures(proc(doc), 8, golden)[0], 1)
        doc["checks"][4]["transcript"][0] += " "
        self.assertEqual(wl.verify_failures(proc(doc), 9, golden)[0], 1)
        bad = SimpleNamespace(stdout="Traceback", returncode=1, stderr="boom")
        self.assertEqual(wl.verify_failures(bad, 9, golden)[0],
                         len(golden["report"]["checks"]))


class MetricNameTests(unittest.TestCase):
    def test_names_are_valid_and_match_the_spec(self):
        spec = benchmark_spec()
        end_to_end = [m["name"] for m in spec["end_to_end"]]
        per_layer = [m["name"] for m in spec["per_layer"]]
        self.assertEqual(end_to_end, [n for n, _ in run.END_TO_END])
        empty = SimpleNamespace(hits=0, misses=0)
        produced = list(layer_metrics({}, empty, empty))
        metrics = dict.fromkeys(produced)
        run.zero_check_metrics(MODS, metrics)
        metrics["trace.overhead_s"] = 0.0
        self.assertEqual(per_layer, list(metrics))
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.layer_unit(m["name"]), m["name"])
        for name in end_to_end + per_layer:
            self.assertTrue(NAME_RE.fullmatch(name), name)
        self.assertEqual(len(set(end_to_end + per_layer)),
                         len(end_to_end) + len(per_layer))


class TracedCountTests(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        keys = ("poly.spoly.calls", "poly.reduce.calls", "rings.mul.calls",
                "rings.catalog.builds")
        for cls in (wl.IntersectWarm, wl.RingChurn):
            seen = []
            for _ in range(2):
                res = run.traced_in_process(cls(MODS, 4), MODS, run.Result("x"), 4)
                self.assertEqual(res.failed, 0, res.errors)
                seen.append({k: res.metrics[k] for k in keys})
            self.assertEqual(seen[0], seen[1])
            self.assertGreater(seen[0]["rings.mul.calls"], 0)

    def test_tracer_uninstalls(self):
        poly = MODS["poly"]
        before = poly.reduce_poly
        tracer = Tracer()
        tracer.install(MODS)
        self.assertIsNot(poly.reduce_poly, before)
        tracer.uninstall()
        self.assertIs(poly.reduce_poly, before)


class ColdProcessTests(unittest.TestCase):
    def test_one_process_at_a_time(self):
        runner = wl.ChildRunner()
        args = SimpleNamespace(seed=2, seconds=0, trace=0)
        res = run.verify_all_cold(MODS, args, runner)
        self.assertEqual(res.failed, 0, res.errors)
        spans = sorted(runner.intervals)
        total, burst = wl.SETUP_PLAN["verify-all-cold"]
        self.assertEqual(len(spans), 1 + min(total, 2 * burst))
        for (_, end), (start, _) in zip(spans, spans[1:]):
            self.assertLessEqual(end, start)
        runner._busy = True
        with self.assertRaises(RuntimeError):
            runner.run(wl.list_command())


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0]] + sys.argv[1:])
