"""Acceptance gate: the ten headline behaviors of the package, each
checked at its stated tolerance and runtime budget.

Every test prints exactly one PASS/FAIL line (visible with ``pytest -s``
or in the captured output of a failing run) and then asserts, so a red
test always names the criterion that broke.
"""

import math
import time

from curved_landau import checks, cli
from curved_landau import lobachevsky as lob
from curved_landau import oracle
from curved_landau import spherical as sph
from curved_landau.model import Component, Geometry, RadialPair, Variant


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} — {detail}")


def _rel_err(value: float, target: float) -> float:
    return abs(value - target) / abs(target)


# ---------------------------------------------------------------------------
# 1-3: independently computed spectra match the closed-form ladders
# ---------------------------------------------------------------------------


def test_criterion_01_h3_spectrum_positive_m():
    start = time.perf_counter()
    report = oracle.radial_eigenvalues_h3(
        1, 5.0, oracle.Grid1D(0.0, 12.0, 4000))
    elapsed = time.perf_counter() - start
    # drop the lambda^2 = 0 borderline level; n = 1..4 remain
    levels = [v for v in report.eigenvalues if v > 0.5][:4]
    targets = [9.0, 16.0, 21.0, 24.0]
    worst = max(_rel_err(v, t) for v, t in zip(levels, targets))
    ok = len(levels) == 4 and worst <= 5e-3 and elapsed < 10.0
    _report(1, ok, f"H3 B=5 m=+1/2 levels {levels} vs {targets}, "
                   f"worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert len(levels) == 4
    assert worst <= 5e-3
    assert elapsed < 10.0


def test_criterion_02_h3_spectrum_negative_m_variant2():
    start = time.perf_counter()
    report = oracle.radial_eigenvalues_h3(
        -1, 5.0, oracle.Grid1D(0.0, 12.0, 4000))
    elapsed = time.perf_counter() - start
    levels = list(report.eigenvalues[:4])
    # variant-2 ladder: lambda_n^2 = B^2 - (B + m - 1/2 - n)^2, n = 0..3
    targets = [25.0 - (5.0 - 1.0 - n) ** 2 for n in range(4)]
    assert targets == [9.0, 16.0, 21.0, 24.0]
    worst = max(_rel_err(v, t) for v, t in zip(levels, targets))
    ok = len(levels) == 4 and worst <= 5e-3 and elapsed < 10.0
    _report(2, ok, f"H3 B=5 m=-1/2 levels {levels} vs {targets}, "
                   f"worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert len(levels) == 4
    assert worst <= 5e-3
    assert elapsed < 10.0


def test_criterion_03_s3_spectrum():
    start = time.perf_counter()
    report = oracle.radial_eigenvalues_s3(
        1, 1.0, oracle.Grid1D(0.0, math.pi, 4000),
        max_count=4)
    elapsed = time.perf_counter() - start
    # eigenvalue 0 is the lambda^2 = 0 borderline level; n = 1, 2 follow
    levels = [v for v in report.eigenvalues if v > 0.5][:2]
    targets = [3.0, 8.0]
    worst = max(_rel_err(v, t) for v, t in zip(levels, targets))
    ok = len(levels) == 2 and worst <= 5e-3 and elapsed < 10.0
    _report(3, ok, f"S3 B=1 m=+1/2 levels {levels} vs {targets}, "
                   f"worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert len(levels) == 2
    assert worst <= 5e-3
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 4: hypergeometric identities at 100 random draws each
# ---------------------------------------------------------------------------


def test_criterion_04_hypergeometric_identities():
    start = time.perf_counter()
    results = checks.run_suites(["hyp"])
    elapsed = time.perf_counter() - start
    names = {r.name for r in results}
    expected = {"hyp/euler-transformation", "hyp/contiguous-raise",
                "hyp/contiguous-lower", "hyp/two-term-recombination"}
    worst = max(r.value for r in results)
    ok = (expected <= names and all(r.passed for r in results)
          and all(r.threshold == 1e-9 for r in results) and elapsed < 5.0)
    _report(4, ok, f"4 identity families x 100 draws, worst residual "
                   f"{worst:.2e} (threshold 1e-9), {elapsed:.2f}s")
    assert expected <= names
    for r in results:
        assert r.threshold == 1e-9
        assert r.passed, f"{r.name}: {r.value:.3e} > {r.threshold:.1e}"
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 5: commutator cancellation converges at stencil order; a wrong
#    helicity operator does not
# ---------------------------------------------------------------------------


def test_criterion_05_commutator_convergence():
    h3_grid = oracle.Grid2D(oracle.Grid1D(0.05, 4.0, 100),
                            oracle.Grid1D(-2.0, 2.0, 100))
    start = time.perf_counter()
    h3_rep = oracle.commutator_residual(
        Geometry.H3, 5.0,
        oracle.gaussian_bump_spinor(2.0, 0.0, 0.5),
        h3_grid, two_m=1)
    s3_rep = oracle.commutator_residual(
        Geometry.S3, 1.0,
        oracle.gaussian_bump_spinor(1.5, 0.0, 0.3),
        oracle.Grid2D(oracle.Grid1D(0.05, math.pi - 0.05, 100),
                      oracle.Grid1D(-1.2, 1.2, 100)),
        two_m=1)
    fault_rep = oracle.commutator_residual(
        Geometry.H3, 5.0,
        oracle.gaussian_bump_spinor(2.0, 0.0, 0.5),
        h3_grid, two_m=1,
        flat_helicity=True)
    elapsed = time.perf_counter() - start
    ok = (abs(h3_rep.convergence_order - 2.0) <= 0.3
          and abs(s3_rep.convergence_order - 2.0) <= 0.3
          and fault_rep.convergence_order < 0.5
          and fault_rep.max_abs > 0.1
          and elapsed < 30.0)
    _report(5, ok, f"orders h3 {h3_rep.convergence_order:.3f}, "
                   f"s3 {s3_rep.convergence_order:.3f} (want 2.0±0.3); "
                   f"flat-helicity fault order "
                   f"{fault_rep.convergence_order:.2g} with residual "
                   f"{fault_rep.max_abs:.3g}, {elapsed:.2f}s")
    assert abs(h3_rep.convergence_order - 2.0) <= 0.3
    assert abs(s3_rep.convergence_order - 2.0) <= 0.3
    assert fault_rep.convergence_order < 0.5  # fails to converge
    assert fault_rep.max_abs > 0.1            # O(1) defect persists
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 6: every variant pair solves its first-order system with the stated
#    relative factor, and a rescaled factor is rejected
# ---------------------------------------------------------------------------


def test_criterion_06_first_order_systems():
    grid_h3 = oracle.Grid1D(0.3, 8.0, 1200)
    grid_s3 = oracle.Grid1D(0.2, math.pi - 0.2, 1200)
    cases = []  # (label, pair_tuple, grid, kwargs)

    for two_m, B, n, pair_kind, v1, v2 in (
            (1, 5.0, 2, RadialPair.V1_V4P, Variant.V1, Variant.V4P),
            (-1, 5.0, 1, RadialPair.V2_V3P, Variant.V2, Variant.V3P)):
        entry = lob.h3_quantize(two_m, B, n, Component.R1)
        lam = math.sqrt(entry.lambda_sq)
        pair = (lob.h3_radial_solution(two_m, B, entry.lambda_sq,
                                       Component.R1, v1),
                lob.h3_radial_solution(two_m, B, entry.lambda_sq,
                                       Component.R2, v2),
                lob.GEOMETRY.radial_pair(two_m, B, entry.lambda_sq, pair_kind)[2])
        cases.append((f"h3 {pair_kind.name}", pair, grid_h3,
                      dict(lam=lam, two_m=two_m, B=B)))

    for two_m, B, n, pair_kind, v1, v2 in (
            (-1, 1.0, 0, RadialPair.V1_V3P, Variant.V1, Variant.V3P),
            (1, 1.0, 1, RadialPair.V2_V4P, Variant.V2, Variant.V4P),
            (7, 1.0, 0, RadialPair.V3_V1P, Variant.V3, Variant.V1P)):
        entry = sph.s3_quantize(two_m, B, n, Component.R1)
        lam = math.sqrt(entry.lambda_sq)
        pair = (sph.s3_radial_solution(two_m, B, entry.lambda_sq,
                                       Component.R1, v1),
                sph.s3_radial_solution(two_m, B, entry.lambda_sq,
                                       Component.R2, v2),
                sph.GEOMETRY.radial_pair(two_m, B, entry.lambda_sq, pair_kind)[2])
        cases.append((f"s3 {pair_kind.name}", pair, grid_s3,
                      dict(lam=lam, two_m=two_m, B=B)))

    worst_good, worst_label = 0.0, ""
    min_bad = math.inf
    for label, pair, grid, kwargs in cases:
        good = oracle.first_order_system_residual(pair, grid, **kwargs)
        bad = oracle.first_order_system_residual(
            (pair[0], pair[1], 2.0 * pair[2]), grid, **kwargs)
        if good.max_abs > worst_good:
            worst_good, worst_label = good.max_abs, label
        min_bad = min(min_bad, bad.max_abs)
    ok = worst_good <= 1e-8 and min_bad > 1e-3
    _report(6, ok, f"{len(cases)} variant pairs; worst residual "
                   f"{worst_good:.2e} ({worst_label}, threshold 1e-8); "
                   f"x2-scaled factor leaves >= {min_bad:.3g}")
    assert worst_good <= 1e-8
    assert min_bad > 1e-3  # the doubled factor is rejected


# ---------------------------------------------------------------------------
# 7: flat-space limit of the lowest ladder
# ---------------------------------------------------------------------------


def test_criterion_07_flat_limit():
    worst = 0.0
    for n in (1, 2, 3):
        for rho in (10.0, 30.0, 100.0):
            lam_sq_physical, flat_target = lob.flat_limit(1.0, n, rho)
            gap = abs(lam_sq_physical - flat_target)
            worst = max(worst, abs(gap - n * n / rho ** 2))
    ok = worst <= 1e-12
    _report(7, ok, f"|lambda0^2 - 2bn| = n^2/rho^2 verified to "
                   f"{worst:.2e} (threshold 1e-12)")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# 8: spherical axial polynomial solutions
# ---------------------------------------------------------------------------


def test_criterion_08_s3_axial_polynomials():
    lam = math.sqrt(3.0)
    grid = oracle.Grid1D(-1.0, 1.0, 1500)
    worst = 0.0
    for n_z in (0, 1, 2):
        p = sph.s3_axial_quantize(lam, n_z)
        assert p == lam + n_z + 0.5  # quantization exact, no rounding
        for component in (Component.Z1, Component.Z2):
            solution = sph.s3_axial_solution(p, lam, component)
            rep = oracle.ode_residual(solution, component, grid, p=p, lam=lam)
            worst = max(worst, rep.max_abs)
    ok = worst <= 1e-8
    _report(8, ok, f"lam=sqrt(3), n_z=0..2, both components: worst ODE "
                   f"residual {worst:.2e} (threshold 1e-8), p exact")
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# 9: the unified level formula differs from the variant formulas by
#    exactly the half-integer offset, exactly where advertised
# ---------------------------------------------------------------------------


def test_criterion_09_unified_formula_audit():
    flagged_h3, clean_h3, off_ladder = 0, 0, 0
    for two_m in range(-7, 9, 2):
        for n in range(5):
            rep = lob.GEOMETRY.audits(two_m, 5.0, (n,))[0]
            assert rep.entry.variant is not None
            if rep.variant_rhs < 0.0:
                # below the ladder the magnitude comparison folds;
                # the discrepancy must still be caught
                assert rep.flagged, (two_m, n)
                off_ladder += 1
            elif two_m < 0:
                assert rep.flagged, (two_m, n)
                assert abs(abs(rep.discrepancy) - 0.5) <= 1e-12
                flagged_h3 += 1
            else:
                assert not rep.flagged, (two_m, n)
                assert abs(rep.discrepancy) <= 1e-9
                clean_h3 += 1

    flagged_s3, clean_s3 = 0, 0
    for two_m in range(-9, 11, 2):
        for n in range(5):
            rep = sph.GEOMETRY.audits(two_m, 1.0, (n,))[0]
            if two_m < 0 or two_m / 2.0 > 2.0:  # V1 and V3 ranges
                assert rep.flagged, (two_m, n)
                assert abs(abs(rep.discrepancy) - 0.5) <= 1e-12
                flagged_s3 += 1
            else:  # variant-2 range: 1/2 <= m <= 2B - 1/2
                assert rep.entry.variant is Variant.V2
                assert not rep.flagged, (two_m, n)
                assert abs(rep.discrepancy) <= 1e-12
                clean_s3 += 1
    ok = (flagged_h3 == 14 and clean_h3 == 20 and off_ladder == 6
          and flagged_s3 == 40 and clean_s3 == 10)
    _report(9, ok, f"h3: {flagged_h3} rows flagged at ±1/2 "
                   f"(+{off_ladder} below the ladder), {clean_h3} clean; "
                   f"s3: {flagged_s3} flagged, {clean_s3} exact on the "
                   f"variant-2 range")
    assert ok


# ---------------------------------------------------------------------------
# 10: spectrum runs are reproducible to the byte
# ---------------------------------------------------------------------------


def test_criterion_10_byte_identical_runs(tmp_path, capsys):
    argv = ["spectrum", "--model", "s3", "--B", "1", "--M", "1",
            "--two-m=-3..3", "--n", "0..3", "--nz", "0..2"]
    first, second = tmp_path / "run1.csv", tmp_path / "run2.csv"
    code1 = cli.main(argv + ["--out", str(first)])
    time.sleep(0.05)  # distinct wall clock; output must not depend on it
    code2 = cli.main(argv + ["--out", str(second)])
    capsys.readouterr()
    ok = (code1 == code2 == 0
          and first.read_bytes() == second.read_bytes())
    _report(10, ok, f"two spectrum runs, {first.stat().st_size} bytes each, "
                    f"byte-identical={first.read_bytes() == second.read_bytes()}")
    assert code1 == 0 and code2 == 0
    assert first.read_bytes() == second.read_bytes()
