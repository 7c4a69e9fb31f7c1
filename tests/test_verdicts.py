"""Verdicts that cannot lie: a check body that raises, or that records no
claim or expectation, FAILs, and the checks around it still report."""

import pytest

from chowcalc import checks
from chowcalc.cli import main


@pytest.fixture
def probe(monkeypatch):
    """Register a check named "probe" with the given body."""
    def register(body):
        check = checks.Check("probe", "1", "dev probe", False, body)
        monkeypatch.setitem(checks.REGISTRY, "probe", check)
        return check
    return register


def _divides_by_zero(seed, rec):
    rec.expect("before the error", 1, 1)
    return 1 // 0


def test_raising_body_fails_with_an_error_line(probe):
    result = checks.run_check(probe(_divides_by_zero))
    assert not result.passed
    assert result.transcript == [
        "before the error = 1",
        "ERROR ZeroDivisionError: integer division or modulo by zero"]


def test_raising_check_leaves_the_others_reporting(probe, capsys):
    probe(_divides_by_zero)
    assert main(["run", "--check", "probe", "--check", "deg-G26-14"]) == 1
    out = capsys.readouterr().out
    assert "FAIL probe (s1, " in out
    assert "    ERROR ZeroDivisionError: " in out
    assert "PASS deg-G26-14 (s2, " in out
    assert "summary: 1 passed, 1 failed, 2 total" in out


@pytest.mark.parametrize("body", [
    lambda seed, rec: None,
    lambda seed, rec: rec.note("a note is not a verdict"),
], ids=["empty", "notes-only"])
def test_check_without_a_verdict_fails(probe, body, capsys):
    result = checks.run_check(probe(body))
    assert not result.passed
    assert result.transcript[-1] == "FAIL no claim or expectation was recorded"
    assert main(["run", "--check", "probe"]) == 1
    assert "FAIL probe" in capsys.readouterr().out


def test_a_single_claim_is_a_verdict(probe):
    result = checks.run_check(probe(lambda seed, rec: rec.claim("holds", True)))
    assert result.passed
    assert result.transcript == ["holds"]
