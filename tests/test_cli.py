"""CLI behavior through main(argv): exit codes, report formats, dumps."""

import json
import os
import subprocess
import sys

import pytest

import chowcalc
from chowcalc import checks
from chowcalc.cli import main
from chowcalc.pencil import BETA_TEXT, FLATTENING_TEXT


class TestList:
    def test_lists_every_check(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in checks.check_names():
            assert name in out
        assert "fast" in out and "slow" in out


class TestRun:
    def test_single_check_text_report(self, capsys):
        assert main(["run", "--check", "deg-FB-24"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("seed %d\n" % checks.DEFAULT_SEED)
        assert "PASS deg-FB-24" in out
        assert "summary: 1 passed, 0 failed, 1 total" in out

    def test_repeatable_check_flag(self, capsys):
        code = main(["run", "--check", "deg-FB-24",
                     "--check", "alphai-deg-6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS alphai-deg-6" in out and "PASS deg-FB-24" in out

    def test_json_report_shape(self, capsys):
        assert main(["run", "--check", "pencil-beta", "--format", "json",
                     "--seed", "99"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 99
        assert doc["summary"] == {"total": 1, "passed": 1, "failed": 0,
                                  "ok": True}
        (entry,) = doc["checks"]
        assert entry["name"] == "pencil-beta"
        assert entry["seed"] == 99
        assert entry["status"] == "pass"
        assert isinstance(entry["transcript"], list)

    def test_json_is_reproducible_modulo_timing(self, capsys):
        argv = ["run", "--check", "pencil-beta", "--format", "json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        for doc in (first, second):
            for entry in doc["checks"]:
                entry.pop("millis")
        assert first == second

    def test_unknown_check_exits_2(self, capsys):
        assert main(["run", "--check", "deg-FB-25"]) == 2
        assert "deg-FB-25" in capsys.readouterr().err

    def test_repeated_check_exits_2(self, capsys):
        argv = ["run", "--check", "deg-G26-14", "--check", "deg-G26-14"]
        for fmt in ("text", "json"):
            assert main(argv + ["--format", fmt]) == 2
            captured = capsys.readouterr()
            assert "'deg-G26-14'" in captured.err
            assert "more than once" in captured.err
            assert captured.out == ""

    def test_all_and_check_conflict(self, capsys):
        assert main(["run", "--all", "--check", "deg-FB-24"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_no_selection(self, capsys):
        assert main(["run"]) == 2
        assert "nothing to run" in capsys.readouterr().err

    def test_section_selection(self, capsys):
        assert main(["run", "--all", "--section", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS bott-six-weights" in out
        assert "PASS property-suites" in out
        assert "deg-G26-14" not in out

    def test_unknown_section_exits_2(self, capsys):
        assert main(["run", "--all", "--section", "9"]) == 2
        captured = capsys.readouterr()
        assert "section '9'" in captured.err
        assert captured.out == ""

    def test_section_with_check_exits_2(self, capsys):
        assert main(["run", "--check", "deg-FB-24", "--section", "3"]) == 2
        captured = capsys.readouterr()
        assert "--section" in captured.err
        assert captured.out == ""

    def test_slow_with_check_exits_2(self, capsys):
        assert main(["run", "--check", "deg-FB-24", "--slow"]) == 2
        captured = capsys.readouterr()
        assert "--slow" in captured.err
        assert captured.out == ""

    def test_failing_check_exits_1(self, capsys):
        def body(seed, rec):
            rec.claim("forced failure", False)
        probe = checks.Check("cli-probe", "1", "dev probe", False, body)
        checks.REGISTRY[probe.name] = probe
        try:
            assert main(["run", "--check", "cli-probe"]) == 1
            out = capsys.readouterr().out
            assert "FAIL cli-probe" in out
            assert "summary: 0 passed, 1 failed, 1 total" in out
        finally:
            del checks.REGISTRY[probe.name]


class TestClosedPipe:
    """`verify run --all --slow | head -1`: a reader that leaves early ends
    the report, not the run, so the exit code keeps the run's verdict."""

    @pytest.mark.parametrize("lines_read", [0, 1])
    def test_reader_leaving_early_keeps_exit_0(self, lines_read):
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(
                       chowcalc.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "chowcalc.cli", "run", "--all", "--slow"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        for _ in range(lines_read):
            assert proc.stdout.readline() == b"seed %d\n" % checks.DEFAULT_SEED
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 0, err
        assert "Traceback" not in err and "BrokenPipeError" not in err


class TestBott:
    def test_regular_weight(self, capsys):
        assert main(["bott", "--weight", "1,0,0"]) == 0
        assert capsys.readouterr().out == \
            "weight [1, 0, 0]: H^0 has dimension 6\n"

    def test_negative_entries_via_equals_form(self, capsys):
        assert main(["bott", "--weight=-1,-1,-2"]) == 0
        out = capsys.readouterr().out
        assert "acyclic" in out
        assert "share absolute value 1" in out

    def test_bad_weight_exits_2(self, capsys):
        assert main(["bott", "--weight", "1,2,3"]) == 2
        assert "bad weight" in capsys.readouterr().err
        assert main(["bott", "--weight", "1,x,0"]) == 2
        capsys.readouterr()


class TestPencil:
    def test_certificate_line(self, capsys):
        assert main(["pencil"]) == 0
        assert capsys.readouterr().out == \
            "constant rank 4 certified; sub-Pfaffian gcd = 1\n"

    def test_dump_is_bit_exact(self, capsys):
        assert main(["pencil", "--dump"]) == 0
        out = capsys.readouterr().out
        assert out == ("6x6 pencil over Q[u, v]:\n" + BETA_TEXT
                       + "12x12 flattening over Q:\n" + FLATTENING_TEXT)


class TestParser:
    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()
