"""Check registry: selection, determinism, and the fast checks themselves."""

import pytest

from chowcalc import checks
from chowcalc.cli import main

ACCEPTANCE_NAMES = [
    "deg-FB-24", "alphai-deg-6", "chow-B-presentation", "gensA2B-relation",
    "EiZi-vanishing", "blowup-consistency", "AI-coefficient",
    "segre-birational", "relative-canonical-I", "bott-six-weights",
    "dimension-ledger", "pencil-beta", "K-invariants", "congruence-model",
    "cubic-locus", "property-suites",
]

FAST_EXTRAS = [
    "pi-model-quadric", "deg-G26-14", "fb-triple-products",
    "pullback-sanity", "EiI-pullback-identity", "gw36-presentation",
    "gw36-restriction-relation", "I-degree-64", "quasimonad-exactness",
    "w-form-nondegenerate", "gw-point-oracle",
]


class TestRegistry:
    def test_names_are_unique_and_complete(self):
        names = checks.check_names()
        assert len(names) == 27
        assert len(set(names)) == 27
        for name in ACCEPTANCE_NAMES:
            assert name in names
        for name in FAST_EXTRAS:
            assert name in names

    def test_slow_markings(self):
        slow = {c.name for c in checks.select_checks(include_slow=True)
                if c.slow}
        assert slow == {"cubic-locus", "congruence-model"}

    def test_sections_are_valid(self):
        for name in checks.check_names():
            assert checks.get_check(name).section in {"1", "2", "3", "4",
                                                      "all"}

    def test_every_check_has_a_reference_line(self):
        for name in checks.check_names():
            assert checks.get_check(name).ref

    def test_a_registered_check_is_named_selected_and_listed(
            self, monkeypatch, capsys):
        probe = checks.Check("registry-probe", "1", "dev probe", False,
                             lambda seed, rec: rec.claim("holds", True))
        monkeypatch.setitem(checks.REGISTRY, probe.name, probe)
        assert checks.check_names()[-1] == probe.name
        assert checks.select_checks(include_slow=True)[-1] is probe
        assert main(["list"]) == 0
        assert "registry-probe" in capsys.readouterr().out

    def test_a_duplicate_name_is_refused(self):
        probe = checks.get_check("deg-FB-24")
        with pytest.raises(ValueError, match="duplicate check names"):
            checks._registry(probe, probe)


class TestSelection:
    def test_default_excludes_slow(self):
        names = {c.name for c in checks.select_checks()}
        assert "cubic-locus" not in names
        assert len(names) == 25

    def test_include_slow(self):
        assert len(checks.select_checks(include_slow=True)) == 27

    def test_explicit_names_bypass_slow_filter(self):
        picked = checks.select_checks(names=["cubic-locus", "deg-FB-24"])
        assert [c.name for c in picked] == ["cubic-locus", "deg-FB-24"]

    def test_section_filter(self):
        sec2 = {c.name for c in checks.select_checks(section="2",
                                                     include_slow=True)}
        assert sec2 == {"deg-FB-24", "alphai-deg-6", "deg-G26-14",
                        "fb-triple-products", "blowup-consistency",
                        "property-suites"}
        assert checks.select_checks(section="§2") \
            == checks.select_checks(section="2")

    @pytest.mark.parametrize("section", ["9", "all"])
    def test_section_without_specific_checks_raises(self, section):
        with pytest.raises(checks.UnknownCheckError):
            checks.select_checks(section=section)

    def test_unknown_name_raises(self):
        with pytest.raises(checks.UnknownCheckError):
            checks.select_checks(names=["deg-FB-25"])
        with pytest.raises(checks.UnknownCheckError):
            checks.get_check("nope")


class TestExecution:
    def test_result_records_seed_and_timing(self):
        result = checks.run_check(checks.get_check("pencil-beta"), seed=7)
        assert result.passed and result.seed == 7
        assert result.millis >= 0
        assert result.status == "pass"
        doc = result.as_dict()
        assert doc["name"] == "pencil-beta"
        assert doc["status"] == "pass"

    def test_same_seed_same_transcript(self):
        check = checks.get_check("pencil-beta")
        first = checks.run_check(check, seed=123).as_dict()
        second = checks.run_check(check, seed=123).as_dict()
        first.pop("millis")
        second.pop("millis")
        assert first == second

    def test_parallel_run_is_sorted_and_equivalent(self):
        picked = checks.select_checks(names=["pencil-beta", "deg-FB-24",
                                             "alphai-deg-6"])
        results = checks.run_checks(picked)
        assert [r.name for r in results] == ["alphai-deg-6", "deg-FB-24",
                                             "pencil-beta"]

    @pytest.mark.parametrize("name", FAST_EXTRAS)
    def test_fast_check_passes(self, name, run_named_check):
        result = run_named_check(name)
        assert result.passed, "\n".join(result.transcript)

    def test_failing_transcript_says_why(self):
        # a check body that records a failed expectation
        def body(seed, rec):
            rec.expect("one equals two", 1, 2)
        probe = checks.Check("probe", "1", "dev probe", False, body)
        result = checks.run_check(probe)
        assert not result.passed
        assert result.status == "fail"
        assert any("one equals two" in line for line in result.transcript)
