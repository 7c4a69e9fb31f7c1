"""Transcript lock: each check reproduces its entry in bench/golden.json.

The golden file holds the report of `verify run --all --slow --format json`
at the default seed, without the `millis` and `seed` fields.  It is only
read here.  Without those fields the report does not depend on the seed
(the sampled sub-checks report only their failure counts), so each check
also runs at seed 7 against the same entry.
"""

import json
import os

import pytest

from chowcalc import checks

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "bench", "golden.json")
SLOW = {"cubic-locus", "congruence-model"}
OTHER_SEED = 7


@pytest.fixture(scope="module")
def golden_checks():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["report"]["checks"]


def test_report_order_matches_golden(golden_checks):
    assert sorted(checks.check_names()) == [c["name"] for c in golden_checks]


NAMES = [pytest.param(name, marks=pytest.mark.slow) if name in SLOW else name
         for name in checks.check_names()]


def _stripped(result):
    got = result.as_dict()
    del got["millis"], got["seed"]
    return got


@pytest.mark.parametrize("name", NAMES)
def test_check_matches_golden(name, golden_checks, run_named_check):
    want = {c["name"]: c for c in golden_checks}[name]
    assert _stripped(run_named_check(name)) == want


@pytest.mark.parametrize("name", NAMES)
def test_check_matches_golden_at_another_seed(name, golden_checks):
    result = checks.run_check(checks.get_check(name), OTHER_SEED)
    assert result.seed == OTHER_SEED
    want = {c["name"]: c for c in golden_checks}[name]
    assert _stripped(result) == want
