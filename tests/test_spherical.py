"""Spherical model: potentials, variants, two-index spectrum, factors."""

import math

import mpmath
import numpy as np
import pytest

from curved_landau.model import (
    Component,
    DomainError,
    InadmissibleVariant,
    NegativeDiscriminant,
    NonPositiveLambda,
    NonTerminating,
    RadialPair,
    Variant,
    ZeroLambda,
)
from curved_landau.spherical import (
    GEOMETRY,
    s3_axial_quantize,
    s3_axial_solution,
    s3_quantize,
    s3_radial_solution,
    s3_total_energy,
)


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------


def test_mu_value_at_equator():
    # mu = (m - B(1 - cos r))/sin r
    assert abs(GEOMETRY.mu(math.pi / 2, 0.5, 1.0) - (-0.5)) < 1e-15


def test_mu_series_guards_match_high_precision():
    mpmath.mp.dps = 50
    for m, B in ((0.5, 1.0), (-1.5, 2.0), (3.5, 1.3)):
        for r in (5e-5, 1e-4 * 0.999, math.pi - 5e-5, math.pi - 1e-4 * 0.999):
            rr = mpmath.mpf(r)
            exact = float((m - B * (1 - mpmath.cos(rr))) / mpmath.sin(rr))
            got = GEOMETRY.mu(r, m, B)
            assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact)), (m, B, r)


def test_mu_domain_guards():
    for r in (0.0, math.pi, -0.1, 3.2):
        with pytest.raises(DomainError):
            GEOMETRY.mu(r, 0.5, 1.0)
        with pytest.raises(DomainError):
            GEOMETRY.mu_prime(r, 0.5, 1.0)


def test_mu_prime_matches_finite_difference():
    rs = np.linspace(0.3, 2.8, 25)
    h = 1e-6
    for m, B in ((0.5, 1.0), (-2.5, 3.0)):
        fd = (GEOMETRY.mu(rs + h, m, B)
              - GEOMETRY.mu(rs - h, m, B)) / (2 * h)
        assert np.max(np.abs(fd - GEOMETRY.mu_prime(rs, m, B))) < 1e-7


def test_radial_potential_combines_mu_and_slope():
    r, m, B = 1.2, 0.5, 1.0
    mu = GEOMETRY.mu(r, m, B)
    mup = GEOMETRY.mu_prime(r, m, B)
    assert abs(GEOMETRY.radial_potential(r, m, B, Component.R1) - (mu * mu + mup)) < 1e-14
    assert abs(GEOMETRY.radial_potential(r, m, B, Component.R2) - (mu * mu - mup)) < 1e-14


def test_constructed_solution_satisfies_radial_equation():
    entry = s3_quantize(1, 1.0, 1, Component.R1)
    sol = s3_radial_solution(1, 1.0, entry.lambda_sq, Component.R1,
                             entry.variant)
    rs = np.linspace(0.2, math.pi - 0.2, 60)
    g, _, g2 = sol.evaluate_with_derivs(rs)
    v = GEOMETRY.radial_potential(rs, 0.5, 1.0, Component.R1)
    residual = -g2 + (v - entry.lambda_sq) * g
    assert np.max(np.abs(residual)) < 1e-10 * np.max(np.abs(g))


# ---------------------------------------------------------------------------
# Quantization (two-index, fully discrete)
# ---------------------------------------------------------------------------


def test_r1_variant_table_at_unit_field():
    # m = 1/2 -> variant 2: sqrt(B^2 + lambda^2) = B + n
    for n, lam_sq in ((0, 0.0), (1, 3.0), (2, 8.0), (3, 15.0)):
        entry = s3_quantize(1, 1.0, n, Component.R1)
        assert entry.variant is Variant.V2
        assert abs(entry.lambda_sq - lam_sq) < 1e-12
        assert entry.admissible == (n >= 1)
    # m = -1/2 -> variant 1: rhs = n - m + 1/2 + B = n + 2
    for n in range(3):
        entry = s3_quantize(-1, 1.0, n, Component.R1)
        assert entry.variant is Variant.V1
        assert abs(entry.lambda_sq - ((n + 2.0) ** 2 - 1.0)) < 1e-12
        assert entry.admissible
    # m = 7/2 > 2B -> variant 3: rhs = n + m + 1/2 - B = n + 3
    for n in range(3):
        entry = s3_quantize(7, 1.0, n, Component.R1)
        assert entry.variant is Variant.V3
        assert abs(entry.lambda_sq - ((n + 3.0) ** 2 - 1.0)) < 1e-12
        assert entry.admissible


def test_r2_variant_table_at_unit_field():
    # m = 1/2 -> variant 4': rhs = B + 1 + n
    for n in range(3):
        entry = s3_quantize(1, 1.0, n, Component.R2)
        assert entry.variant is Variant.V4P
        assert abs(entry.lambda_sq - ((n + 2.0) ** 2 - 1.0)) < 1e-12
    # m = -1/2 -> variant 3': rhs = n - m + 1/2 + B = n + 2
    entry = s3_quantize(-1, 1.0, 0, Component.R2)
    assert entry.variant is Variant.V3P
    assert abs(entry.lambda_sq - 3.0) < 1e-12
    # m = 7/2 -> variant 1': rhs = n + m + 1/2 - B = n + 3
    entry = s3_quantize(7, 1.0, 0, Component.R2)
    assert entry.variant is Variant.V1P
    assert abs(entry.lambda_sq - 8.0) < 1e-12


def test_borderline_zero_mode_is_inadmissible():
    entry = s3_quantize(1, 1.0, 0, Component.R1)
    assert not entry.admissible
    assert entry.violated == "lambda_sq > 0"


def test_negative_field_reflection_swaps_components():
    for n in range(3):
        a = s3_quantize(1, -1.0, n, Component.R1)
        b = s3_quantize(-1, 1.0, n, Component.R2)
        assert a.admissible == b.admissible
        if a.lambda_sq is not None:
            assert abs(a.lambda_sq - b.lambda_sq) < 1e-12


def test_every_m_eventually_admissible():
    # compact space: the ladder grows with n, so bound states never
    # run out (contrast with the hyperbolic n < B cutoff)
    for two_m in (-9, -1, 1, 9):
        entries = [s3_quantize(two_m, 1.0, n, Component.R1) for n in range(8)]
        assert sum(e.admissible for e in entries) >= 6


def test_quantize_argument_guards():
    with pytest.raises(DomainError):
        s3_quantize(0, 1.0, 1, Component.R1)
    with pytest.raises(DomainError):
        s3_quantize(1, 1.0, -2, Component.R1)
    with pytest.raises(DomainError):
        s3_quantize(1, 1.0, 1, Component.Z1)
    # a non-integer quantum number used to select a row and return a level
    with pytest.raises(DomainError, match="two_m must be an odd integer"):
        GEOMETRY.quantize(1.5, 1.0, 1, Component.R1)
    with pytest.raises(DomainError, match="n must be an integer"):
        GEOMETRY.quantize(1, 1.0, 1.5, Component.R1)
    assert GEOMETRY.quantize(np.int64(1), 1.0, np.int32(1), Component.R1).admissible


# ---------------------------------------------------------------------------
# Radial solution guards
# ---------------------------------------------------------------------------


def test_radial_solution_guards():
    with pytest.raises(NegativeDiscriminant):
        s3_radial_solution(1, 1.0, -2.0, Component.R1, Variant.V2)
    with pytest.raises(DomainError):
        s3_radial_solution(1, 1.0, 3.0, Component.R2, Variant.V2)
    with pytest.raises(InadmissibleVariant):
        # variant 2 at m = -3/2: origin exponent C = m/2 < 0
        s3_radial_solution(-3, 1.0, 3.0, Component.R1, Variant.V2)
    with pytest.raises(InadmissibleVariant):
        # variant 1 at m = 3/2: C = (1-m)/2 < 0
        s3_radial_solution(3, 1.0, 3.0, Component.R1, Variant.V1)
    with pytest.raises(DomainError, match="two_m must be an odd integer"):
        GEOMETRY.radial_solution(2, 1.0, 4.0, Component.R1, Variant.V2)


# ---------------------------------------------------------------------------
# Axial family
# ---------------------------------------------------------------------------


def test_axial_quantization_values():
    lam = math.sqrt(3.0)
    assert abs(s3_axial_quantize(lam, 0) - 2.232050807568877) < 1e-15
    for n_z in range(4):
        assert s3_axial_quantize(lam, n_z) == lam + n_z + 0.5


def test_axial_quantization_guards():
    with pytest.raises(NonPositiveLambda):
        s3_axial_quantize(0.0, 0)
    with pytest.raises(NonPositiveLambda):
        s3_axial_quantize(-1.0, 0)
    with pytest.raises(DomainError):
        s3_axial_quantize(1.0, -1)
    # n_z must be an integer level, as quantize demands of n; lambda finite
    for lam, n_z in ((1.0, 1.5), (1.0, 2.0), (float("nan"), 0),
                     (float("inf"), 0)):
        with pytest.raises(DomainError):
            s3_axial_quantize(lam, n_z)
    assert s3_axial_quantize(1.0, np.int64(2)) == 3.5


def test_axial_solution_requires_termination():
    with pytest.raises(NonTerminating):
        s3_axial_solution(1.0, math.sqrt(3.0), Component.Z1)
    with pytest.raises(DomainError):
        s3_axial_solution(-1.0, math.sqrt(3.0), Component.Z1)


def test_axial_forms_are_the_axial_family():
    # (P, L) = (-p, lam): Z1 has the lower shape, Z2 the upper one
    lam = math.sqrt(3.0)
    p = s3_axial_quantize(lam, 2)
    z1 = GEOMETRY.axial_solution(p, lam, Component.Z1)
    z2 = GEOMETRY.axial_solution(p, lam, Component.Z2)
    a, b, c = -p + 0.5 + lam, -p + 0.5 - lam, -p + 0.5
    assert (z1.params.a, z1.params.b, z1.params.c) == (a, b, c)
    assert (z2.params.a, z2.params.b, z2.params.c) == (a, b, c + 1)
    assert (z1.exp_a, z1.exp_c) == (-p / 2, (1 - p) / 2)
    assert (z2.exp_a, z2.exp_c) == ((1 - p) / 2, -p / 2)
    assert z1.params.degree == 2
    _, _, factor = GEOMETRY.axial_pair(p, lam)
    assert factor == -1j * lam / c


def test_axial_solutions_satisfy_equations():
    lam = math.sqrt(3.0)
    zs = np.linspace(-1.3, 1.3, 40)
    tan, cos = np.tan(zs), np.cos(zs)
    for n_z in range(3):
        p = s3_axial_quantize(lam, n_z)
        z1 = s3_axial_solution(p, lam, Component.Z1)
        z2 = s3_axial_solution(p, lam, Component.Z2)
        g, g1, g2 = z1.evaluate_with_derivs(zs)
        r = g2 - tan * g1 + (p * p - 1j * p * tan - lam * lam / cos**2) * g
        assert np.max(np.abs(r)) < 1e-10 * np.max(np.abs(g))
        h, h1, h2 = z2.evaluate_with_derivs(zs)
        r = h2 - tan * h1 + (p * p + 1j * p * tan - lam * lam / cos**2) * h
        assert np.max(np.abs(r)) < 1e-10 * np.max(np.abs(h))


def test_axial_system_with_pair_factor():
    lam = math.sqrt(3.0)
    p = s3_axial_quantize(lam, 1)
    z1, z2, fac = GEOMETRY.axial_pair(p, lam)
    zs = np.linspace(-1.3, 1.3, 30)
    g1, d1, _ = z1.evaluate_with_derivs(zs)
    g2, d2, _ = z2.evaluate_with_derivs(zs)
    g2, d2 = fac * g2, fac * d2
    r1 = np.cos(zs) * (d1 + 1j * p * g1) - lam * g2
    r2 = np.cos(zs) * (d2 - 1j * p * g2) - lam * g1
    scale = max(np.max(np.abs(g1)), np.max(np.abs(g2)))
    assert np.max(np.abs(r1)) < 1e-12 * scale
    assert np.max(np.abs(r2)) < 1e-12 * scale


def test_axial_pair_factor_guards():
    with pytest.raises(ZeroLambda):
        GEOMETRY.axial_pair(2.0, 0.0)
    with pytest.raises(DomainError):
        GEOMETRY.axial_pair(0.5, 1.0)  # c = 1/2 - p = 0


# ---------------------------------------------------------------------------
# Radial pair factors
# ---------------------------------------------------------------------------


def _radial_system_residual(two_m, B, n, pair, v1, v2):
    entry = s3_quantize(two_m, B, n, Component.R1)
    lam = math.sqrt(entry.lambda_sq)
    m = two_m / 2.0
    r1 = s3_radial_solution(two_m, B, entry.lambda_sq, Component.R1, v1)
    r2 = s3_radial_solution(two_m, B, entry.lambda_sq, Component.R2, v2)
    fac = GEOMETRY.radial_pair(two_m, B, entry.lambda_sq, pair)[2]
    rs = np.linspace(0.25, math.pi - 0.25, 40)
    g1, d1, _ = r1.evaluate_with_derivs(rs)
    g2, d2, _ = r2.evaluate_with_derivs(rs)
    g2, d2 = fac * g2, fac * d2
    mu = GEOMETRY.mu(rs, m, B)
    res1 = d1 - mu * g1 - lam * g2
    res2 = d2 + mu * g2 + lam * g1
    scale = max(np.max(np.abs(g1)), np.max(np.abs(g2)))
    return max(np.max(np.abs(res1)), np.max(np.abs(res2))) / scale


def test_radial_pair_systems():
    assert _radial_system_residual(-1, 1.0, 0, RadialPair.V1_V3P,
                                   Variant.V1, Variant.V3P) < 1e-12
    assert _radial_system_residual(1, 1.0, 1, RadialPair.V2_V4P,
                                   Variant.V2, Variant.V4P) < 1e-12
    assert _radial_system_residual(7, 1.0, 0, RadialPair.V3_V1P,
                                   Variant.V3, Variant.V1P) < 1e-12


def test_radial_pair_factor_guards():
    with pytest.raises(ZeroLambda):
        GEOMETRY.radial_pair(1, 1.0, 0.0, RadialPair.V2_V4P)
    with pytest.raises(InadmissibleVariant):
        GEOMETRY.radial_pair(3, 1.0, 4.0, RadialPair.V1_V3P)
    with pytest.raises(InadmissibleVariant):
        # 3' exists only for m <= -1/2
        GEOMETRY.radial_pair(1, 1.0, 4.0, RadialPair.V1_V3P)
    with pytest.raises(DomainError, match="two_m must be an odd integer"):
        GEOMETRY.radial_pair(2, 1.0, 4.0, RadialPair.V2_V4P)
    with pytest.raises(InadmissibleVariant):
        GEOMETRY.radial_pair(-1, 1.0, 4.0, RadialPair.V2_V4P)
    with pytest.raises(InadmissibleVariant):
        GEOMETRY.radial_pair(1, 1.0, 4.0, RadialPair.V3_V1P)


# ---------------------------------------------------------------------------
# Energy, unified audit, regions
# ---------------------------------------------------------------------------


def test_total_energy_value():
    lam = math.sqrt(3.0)
    p = s3_axial_quantize(lam, 0)
    assert abs(s3_total_energy(1.0, p) - 2.4458231349729433) < 1e-14
    assert p == lam + 0.5
    assert s3_total_energy(2.0, p) == math.sqrt(4.0 + p * p)
    # M <= 0, and M^2 + p^2 overflowing (sqrt would return inf) or nan
    for M in (0.0, 1e200, 1.4e154, float("nan")):
        with pytest.raises(DomainError):
            s3_total_energy(M, p)
    # p is a quantized momentum: finite and > 0
    for bad in (0.0, -2.5, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            s3_total_energy(1.0, bad)


def test_unified_report_exact_on_variant2_range():
    for n in range(4):
        report = GEOMETRY.audit(1, 1.0, n)
        assert report.entry.variant is Variant.V2
        assert abs(report.discrepancy) < 1e-12
        assert report.flagged is False


def test_unified_report_flags_half_offset_outside_variant2():
    report = GEOMETRY.audit(-1, 1.0, 1)
    assert abs(abs(report.discrepancy) - 0.5) < 1e-12
    assert report.flagged is True
    report = GEOMETRY.audit(7, 1.0, 1)  # m > 2B side
    assert abs(abs(report.discrepancy) - 0.5) < 1e-12
    assert report.flagged is True


def test_region_consistent_inside_variant2_strip():
    verdict = GEOMETRY.audit(1, 1.0, 1)
    assert verdict.entry.admissible
    assert verdict.predicate > 0
    assert verdict.predicate_consistent


def test_region_disagreement_on_negative_m():
    verdict = GEOMETRY.audit(-1, 1.0, 0)
    assert verdict.entry.admissible  # lambda^2 = 3 > 0
    assert verdict.predicate < 0  # advertised strip excludes it
    assert not verdict.predicate_consistent


def test_region_reflection_applied():
    # B < 0 answers at (-m, -B), where R1 becomes R2
    verdict = GEOMETRY.audit(1, -1.0, 1)
    assert verdict.predicate == GEOMETRY.audit(-1, 1.0, 1).predicate
    assert verdict.entry.lambda_sq == GEOMETRY.quantize(-1, 1.0, 1, Component.R2).lambda_sq
