"""Contract tests for the verification-suite runner (cheap suites only;
the expensive suites run in full inside the acceptance tests)."""

import dataclasses

import numpy as np
import pytest

from curved_landau import checks
from curved_landau import lobachevsky as lob
from curved_landau import spherical as sph
from curved_landau.hyp2f1 import eval_2f1, series_with_derivatives
from curved_landau.model import DomainError, GeometryRecord, Variant


def test_suite_names_are_stable():
    assert checks.SUITE_NAMES == ("hyp", "radial", "axial", "commutator",
                                  "pairs", "flat-limit")


def test_axial_values_do_not_depend_on_case_order(monkeypatch):
    # axial/h3-fd-order reads the h3 case's reports, wherever it sits
    forward = {r.name: r.value for r in checks.run_suites(["axial"])}
    monkeypatch.setattr(checks, "_AXIAL_CASES", checks._AXIAL_CASES[::-1])
    backward = {r.name: r.value for r in checks.run_suites(["axial"])}
    assert backward == forward


def _s3_quantization_result():
    [result] = [r for r in checks.run_suites(["axial"])
                if r.name == "axial/s3-quantization-exact"]
    return result


def test_s3_quantization_check_meters_the_rule_against_the_algebra(monkeypatch):
    # at the quantized p each Z1 series stops at degree n_z; a rule one
    # step off, or an axial algebra one step off, makes it stop a degree late
    result = _s3_quantization_result()
    assert (result.value, result.passed) == (0.0, True)
    with monkeypatch.context() as patch:
        patch.setattr(sph, "s3_axial_quantize", lambda lam, n_z: lam + n_z + 1.5)
        result = _s3_quantization_result()
    assert (result.value, result.passed) == (1.0, False)
    assert result.detail == "p = lam + n_z + 1/2"
    monkeypatch.setattr(GeometryRecord, "axial_pl",
                        lambda self, p, lam: (-p - 1.0, lam))
    result = _s3_quantization_result()
    assert (result.value, result.passed) == (1.0, False)


def test_flat_limit_suite_passes_and_reports():
    results = checks.run_suites(["flat-limit"])
    assert results
    for r in results:
        assert r.name.startswith("flat-limit/")
        assert r.passed
        assert 0.0 <= r.value <= r.threshold


def test_flat_limit_suite_meters_the_quantized_level(monkeypatch):
    # a variant-1 rhs off by 1e-6 shifts lambda^2/rho^2 by ~2e-6 b
    v1 = lob.GEOMETRY.row(Variant.V1)
    rhs = v1.rhs
    off = dataclasses.replace(v1, rhs=lambda m, B, n: rhs(m, B, n) + 1e-6)
    rows = tuple(off if r is v1 else r for r in lob.GEOMETRY.variants)
    monkeypatch.setattr(lob, "GEOMETRY",
                        dataclasses.replace(lob.GEOMETRY, variants=rows))
    [result] = checks.run_suites(["flat-limit"])
    assert not result.passed
    assert result.value > 1e-6


def test_hyp_suite_passes():
    results = checks.run_suites(["hyp"])
    assert results and all(r.passed for r in results)
    assert {r.name.split("/")[0] for r in results} == {"hyp"}


def test_hyp_suite_takes_f_from_its_one_series_call():
    # the suite meters F from the series_with_derivatives call its
    # contiguous lhs makes: F's row is cut where a call for F alone cuts,
    # so at each of the suite's draws (the same stream, lens points
    # included) F has eval_2f1's bits, at the lowered c too
    rng = np.random.default_rng(checks._RNG_SEED)
    for _ in range(checks._DRAWS):
        params = checks._random_params(rng)
        y = checks._random_y(rng)
        for p in (params, params.shifted(dc=-1)):
            got, want = series_with_derivatives(p, y)[0], eval_2f1(p, y)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
        checks._random_y(rng, lens=True)


def test_duplicate_suites_run_once():
    once = checks.run_suites(["flat-limit"])
    twice = checks.run_suites(["flat-limit", "flat-limit"])
    assert [r.name for r in once] == [r.name for r in twice]


def test_tolerance_override_applies_to_every_check():
    results = checks.run_suites(["flat-limit"], tol=1e-30)
    assert all(r.threshold == 1e-30 for r in results)
    assert not any(r.passed for r in results)


def test_tolerance_override_spares_exactly_the_four_fixed_thresholds():
    fixed = {"axial/s3-quantization-exact": 1e-15, "axial/h3-fd-order": 0.3,
             "pairs/h3-scaled-factor-rejected": 0.01,
             "commutator/flat-fault-detected": 0.5}
    results = checks.run_suites(["all"], tol=1e-30)
    assert len(results) == 25
    assert {r.name: r.threshold for r in results
            if r.threshold != 1e-30} == fixed
    for r in results:
        assert r.passed == (r.value <= r.threshold)
        assert r.passed == (r.name in fixed)


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
