"""Transcript lock: each check reproduces its entry in bench/golden.json.

The golden file holds the report of `verify run --all --slow --format json`
at the default seed, without the `millis` and `seed` fields.  It is only
read here.
"""

import json
import os

import pytest

from chowcalc import checks

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "bench", "golden.json")
SLOW = {"cubic-locus", "congruence-model"}


@pytest.fixture(scope="module")
def golden_checks():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["report"]["checks"]


def test_report_order_matches_golden(golden_checks):
    assert sorted(checks.check_names()) == [c["name"] for c in golden_checks]


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.slow) if name in SLOW else name
    for name in checks.check_names()])
def test_check_matches_golden(name, golden_checks, run_named_check):
    got = run_named_check(name).as_dict()
    del got["millis"], got["seed"]
    want = {c["name"]: c for c in golden_checks}[name]
    assert got == want
