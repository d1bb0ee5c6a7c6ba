"""Contract tests for the verification-suite runner (cheap suites only;
the expensive suites run in full inside the acceptance tests)."""

import pytest

from curved_landau import checks
from curved_landau.model import DomainError


def test_suite_names_are_stable():
    assert checks.SUITE_NAMES == ("hyp", "radial", "axial", "commutator",
                                  "pairs", "flat-limit")


def test_flat_limit_suite_passes_and_reports():
    results = checks.run_suites(["flat-limit"])
    assert results
    for r in results:
        assert r.name.startswith("flat-limit/")
        assert r.passed
        assert 0.0 <= r.value <= r.threshold


def test_hyp_suite_passes():
    results = checks.run_suites(["hyp"])
    assert results and all(r.passed for r in results)
    assert {r.name.split("/")[0] for r in results} == {"hyp"}


def test_duplicate_suites_run_once():
    once = checks.run_suites(["flat-limit"])
    twice = checks.run_suites(["flat-limit", "flat-limit"])
    assert [r.name for r in once] == [r.name for r in twice]


def test_tolerance_override_applies_to_every_check():
    results = checks.run_suites(["flat-limit"], tol=1e-30)
    assert all(r.threshold == 1e-30 for r in results)
    assert not any(r.passed for r in results)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_tolerance_must_be_finite_and_positive(tol):
    # 0 would read as "no override", -1 and nan fail every check
    with pytest.raises(DomainError, match="tol"):
        checks.run_suites(["flat-limit"], tol=tol)


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        checks.run_suites(["nonesuch"])


def test_check_result_is_self_consistent():
    for r in checks.run_suites(["flat-limit", "hyp"]):
        assert r.passed == (r.value <= r.threshold)
