import pytest

from chowcalc import checks

try:
    from hypothesis import settings
except ImportError:  # hypothesis is optional; its tests skip themselves
    settings = None
else:
    # a larger, derandomized budget for tests that leave max_examples to
    # the profile (test_poly_oracle.py); run with --hypothesis-profile=ci
    settings.register_profile("ci", max_examples=1000, derandomize=True,
                              deadline=None)


@pytest.fixture(scope="session")
def run_named_check():
    """Run registry checks at the default seed, once per session."""
    cache = {}

    def run(name: str):
        if name not in cache:
            cache[name] = checks.run_check(checks.get_check(name))
        return cache[name]

    return run
