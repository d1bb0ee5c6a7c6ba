"""Hyperbolic model: potentials, variants, quantization, factors, limits."""

import dataclasses
import math

import numpy as np
import pytest

from curved_landau.hyp2f1 import Hyp2F1Params, KummerBranch
from curved_landau.lobachevsky import (
    GEOMETRY,
    flat_limit,
    h3_axial_solution,
    h3_quantize,
    h3_radial_solution,
    helicity_link,
)
from curved_landau.model import (
    Component,
    DomainError,
    Geometry,
    InadmissibleVariant,
    MasslessUnsupported,
    RadialPair,
    SigmaBranch,
    SolutionForm,
    SubthresholdEnergy,
    Variable,
    Variant,
    ZeroLambda,
)


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------


_DERIVED = ("sine", "cosine", "r_max", "z_max", "radial_variable",
            "axial_variable", "axial_upper")


def _derived(rec):
    """The record's fields and properties that kappa fixes, with its
    axial (P, L) at (p, lam) = (0.7, 1.3)."""
    return tuple(getattr(rec, name) for name in _DERIVED) + (rec.axial_pl(0.7, 1.3),)


@pytest.mark.parametrize("space, derived", [
    (Geometry.H3, (np.sinh, np.cosh, math.inf, math.inf, Variable.YR,
                   Variable.YZ, Component.Z1, (0.7j, 1.3j))),
    (Geometry.S3, (np.sin, np.cos, math.pi, math.pi / 2, Variable.YR_S3,
                   Variable.YZ_S3, Component.Z2, (-0.7, 1.3)))])
def test_kappa_alone_fixes_the_trig_pair_and_extents(space, derived):
    # kappa fixes all eight, and flipping it flips them together; the
    # record's other two fields are its variant and pair tables
    rec = space.record
    assert _derived(rec) == derived
    assert sum(f.init for f in dataclasses.fields(rec)) == 3
    other = (Geometry.S3 if space is Geometry.H3 else Geometry.H3).record
    flipped = dataclasses.replace(rec, kappa=-rec.kappa)
    assert _derived(flipped) == _derived(other)


@pytest.mark.parametrize("space", [Geometry.H3, Geometry.S3], ids=["H3", "S3"])
@pytest.mark.parametrize("call", [
    lambda rec: rec.mu(math.nan, 0.5, 1.0),
    lambda rec: rec.mu_prime(math.nan, 0.5, 1.0),
    lambda rec: rec.radial_potential([0.5, math.nan], 0.5, 1.0, Component.R1),
    lambda rec: rec.mu(1.0, math.nan, 5.0),
    lambda rec: rec.mu(1.0, 0.5, math.inf),
    lambda rec: rec.mu_prime(1.0, 0.5, -math.inf),
    lambda rec: rec.radial_potential(1.0, math.inf, 1.0, Component.R2),
], ids=["mu-r-nan", "mu_prime-r-nan", "potential-r-nan", "mu-m-nan",
        "mu-B-inf", "mu_prime-B-inf", "potential-m-inf"])
def test_mu_family_refuses_bad_input(space, call):
    # no NaN or infinity comes back for a NaN r or a non-finite m or B
    with pytest.raises(DomainError):
        call(space.record)


def test_mu_value_zero_field():
    # mu = (m - B(cosh r - 1))/sinh r -> m/sinh r at B = 0
    assert abs(GEOMETRY.mu(1.0, 0.5, 0.0) - 0.5 / math.sinh(1.0)) < 1e-15


def test_mu_prime_matches_finite_difference():
    rs = np.linspace(0.3, 6.0, 25)
    h = 1e-6
    for m, B in ((0.5, 5.0), (-1.5, 2.0)):
        fd = (GEOMETRY.mu(rs + h, m, B) - GEOMETRY.mu(rs - h, m, B)) / (2 * h)
        an = GEOMETRY.mu_prime(rs, m, B)
        assert np.max(np.abs(fd - an)) < 1e-7


def test_radial_potential_combines_mu_and_slope():
    r, m, B = 1.7, 0.5, 5.0
    mu = GEOMETRY.mu(r, m, B)
    mup = GEOMETRY.mu_prime(r, m, B)
    assert abs(GEOMETRY.radial_potential(r, m, B, Component.R1) - (mu * mu + mup)) < 1e-14
    assert abs(GEOMETRY.radial_potential(r, m, B, Component.R2) - (mu * mu - mup)) < 1e-14


def test_constructed_solution_satisfies_radial_equation():
    entry = h3_quantize(1, 5.0, 2, Component.R1)
    sol = h3_radial_solution(1, 5.0, entry.lambda_sq, Component.R1, entry.variant)
    rs = np.linspace(0.4, 7.0, 60)
    g, _, g2 = sol.evaluate_with_derivs(rs)
    v = GEOMETRY.radial_potential(rs, 0.5, 5.0, Component.R1)
    residual = -g2 + (v - entry.lambda_sq) * g
    assert np.max(np.abs(residual)) < 1e-10 * np.max(np.abs(g))


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------


def test_variant1_ladder():
    expected = {0: 0.0, 1: 9.0, 2: 16.0, 3: 21.0, 4: 24.0, 5: 25.0}
    for n, lam_sq in expected.items():
        entry = h3_quantize(1, 5.0, n, Component.R1)
        assert entry.variant is Variant.V1
        assert abs(entry.lambda_sq - lam_sq) < 1e-12
        assert entry.admissible == (n in (1, 2, 3, 4))
    assert h3_quantize(1, 5.0, 0, Component.R1).violated == "lambda_sq > 0"
    assert "n <" in h3_quantize(1, 5.0, 5, Component.R1).violated


def test_variant2_ladder():
    # m = -1/2: sqrt(B^2 - lambda^2) = B + m - 1/2 - n = 4 - n
    for n in range(4):
        entry = h3_quantize(-1, 5.0, n, Component.R1)
        assert entry.variant is Variant.V2
        assert abs(entry.lambda_sq - (25.0 - (4.0 - n) ** 2)) < 1e-12
        assert entry.admissible
    assert not h3_quantize(-1, 5.0, 4, Component.R1).admissible


def test_r2_ladder_is_r1_ladder_shifted():
    for n in range(4):
        r2 = h3_quantize(1, 5.0, n, Component.R2)
        r1 = h3_quantize(1, 5.0, n + 1, Component.R1)
        assert r2.variant is Variant.V4P
        assert abs(r2.lambda_sq - r1.lambda_sq) < 1e-12


def test_negative_field_reflection_swaps_components():
    for n in range(3):
        a = h3_quantize(1, -5.0, n, Component.R1)
        b = h3_quantize(-1, 5.0, n, Component.R2)
        assert a.admissible == b.admissible
        assert (a.lambda_sq is None) == (b.lambda_sq is None)
        if a.lambda_sq is not None:
            assert abs(a.lambda_sq - b.lambda_sq) < 1e-12


def test_quantize_argument_guards():
    with pytest.raises(DomainError):
        h3_quantize(2, 5.0, 1, Component.R1)
    with pytest.raises(DomainError):
        h3_quantize(1, 5.0, -1, Component.R1)


@pytest.mark.parametrize("B", [math.nan, math.inf, -math.inf, 1e308, -1e200])
@pytest.mark.parametrize("geo", [Geometry.H3, Geometry.S3])
def test_quantize_refuses_a_field_whose_level_is_not_finite(geo, B):
    # nan or overflowing lambda^2 used to come back as an admissible level
    for component in (Component.R1, Component.R2):
        with pytest.raises(DomainError):
            geo.record.quantize(1, B, 0, component)


def test_radial_solution_guards():
    with pytest.raises(DomainError):
        h3_radial_solution(1, 5.0, 9.0, Component.R2, Variant.V1)
    with pytest.raises(InadmissibleVariant):
        h3_radial_solution(-1, 5.0, 9.0, Component.R1, Variant.V1)
    with pytest.raises(InadmissibleVariant):
        h3_radial_solution(1, 5.0, 26.0, Component.R1, Variant.V1)


def test_radial_solution_refuses_a_spherical_variant():
    # V3 is a row of the S3 table only
    with pytest.raises(DomainError, match="not a H3 radial variant"):
        h3_radial_solution(1, 5.0, 9.0, Component.R1, Variant.V3)


# ---------------------------------------------------------------------------
# Axial family
# ---------------------------------------------------------------------------


def test_axial_solution_satisfies_equation():
    p, lam = 0.7, 1.3
    z1 = h3_axial_solution(p, lam, KummerBranch.U1, Component.Z1)
    zs = np.linspace(-1.5, 1.5, 40)
    g, g1, g2 = z1.evaluate_with_derivs(zs)
    t = np.tanh(zs)
    residual = g2 + t * g1 + (p * p + 1j * p * t
                              - lam * lam / np.cosh(zs) ** 2) * g
    assert np.max(np.abs(residual)) < 1e-10 * np.max(np.abs(g))


def test_axial_u5_branch_satisfies_equation():
    p, lam = 0.7, 1.3
    z1 = h3_axial_solution(p, lam, KummerBranch.U5, Component.Z1)
    zs = np.linspace(-1.5, 1.5, 40)
    g, g1, g2 = z1.evaluate_with_derivs(zs)
    t = np.tanh(zs)
    residual = g2 + t * g1 + (p * p + 1j * p * t
                              - lam * lam / np.cosh(zs) ** 2) * g
    assert np.max(np.abs(residual)) < 1e-10 * np.max(np.abs(g))


def test_axial_system_with_pair_factor():
    p, lam = 0.9, 1.7
    for branch in (KummerBranch.U1, KummerBranch.U5):
        z1 = h3_axial_solution(p, lam, branch, Component.Z1)
        z2 = h3_axial_solution(p, lam, branch, Component.Z2)
        fac = (GEOMETRY.axial_pair(p, lam)[2] if branch is KummerBranch.U1
               else 1 / GEOMETRY.axial_pair(-p, lam)[2])
        zs = np.linspace(-1.5, 1.5, 30)
        g1, d1, _ = z1.evaluate_with_derivs(zs)
        g2, d2, _ = z2.evaluate_with_derivs(zs)
        g2, d2 = fac * g2, fac * d2
        r1 = np.cosh(zs) * (d1 + 1j * p * g1) - lam * g2
        r2 = np.cosh(zs) * (d2 - 1j * p * g2) - lam * g1
        scale = max(np.max(np.abs(g1)), np.max(np.abs(g2)))
        assert np.max(np.abs(r1)) < 1e-10 * scale, branch
        assert np.max(np.abs(r2)) < 1e-10 * scale, branch


def test_axial_pair_factor_zero_lambda():
    with pytest.raises(ZeroLambda):
        GEOMETRY.axial_pair(0.7, 0.0)


def test_axial_u1_forms_are_the_axial_family():
    # (P, L) = (ip, i lam): Z1 has the upper shape, Z2 the lower one, both
    # in Euler's form
    p, lam = 2.0, 1.0
    ip, il = 1j * p, 1j * lam
    z1 = GEOMETRY.axial_solution(p, lam, Component.Z1)
    z2 = GEOMETRY.axial_solution(p, lam, Component.Z2)
    c = ip + 0.5
    assert (z1.params.a, z1.params.b, z1.params.c) == (1 + il, 1 - il, c + 1)
    assert (z2.params.a, z2.params.b, z2.params.c) == (il, -il, c)
    assert (z1.exp_a, z1.exp_c) == ((1 + ip) / 2, (1 - ip) / 2)
    assert (z2.exp_a, z2.exp_c) == (ip / 2, -ip / 2)
    # the same functions as the shapes before Euler's transformation
    a, b = c + il, c - il
    before = (SolutionForm((1 + ip) / 2, ip / 2, Hyp2F1Params(a, b, c + 1), Variable.YZ),
              SolutionForm(ip / 2, (1 + ip) / 2, Hyp2F1Params(a, b, c), Variable.YZ))
    zs = np.linspace(-2.0, 2.0, 41)
    for form, old in zip((z1, z2), before):
        ref = old.evaluate(zs)
        assert np.max(np.abs(form.evaluate(zs) - ref)) < 1e-13 * np.max(np.abs(ref))
    # the z2/z1 factor is 1/k = c/(-i L) = (1/2 + ip)/lam exactly, also
    # at p = 900, lam = 0.1, where (p + lam) - p cancels
    for p, lam in ((p, lam), (900.0, 0.1)):
        assert GEOMETRY.axial_pair(p, lam)[2] == (0.5 + 1j * p) / lam


# ---------------------------------------------------------------------------
# Pair factors (radial)
# ---------------------------------------------------------------------------


def test_radial_pair_system():
    entry = h3_quantize(1, 5.0, 2, Component.R1)
    lam = math.sqrt(entry.lambda_sq)
    r1 = h3_radial_solution(1, 5.0, entry.lambda_sq, Component.R1, Variant.V1)
    r2 = h3_radial_solution(1, 5.0, entry.lambda_sq, Component.R2, Variant.V4P)
    fac = GEOMETRY.radial_pair(1, 5.0, entry.lambda_sq, RadialPair.V1_V4P)[2]
    rs = np.linspace(0.4, 6.0, 40)
    g1, d1, _ = r1.evaluate_with_derivs(rs)
    g2, d2, _ = r2.evaluate_with_derivs(rs)
    g2, d2 = fac * g2, fac * d2
    mu = GEOMETRY.mu(rs, 0.5, 5.0)
    res1 = d1 - mu * g1 - lam * g2
    res2 = d2 + mu * g2 + lam * g1
    scale = max(np.max(np.abs(g1)), np.max(np.abs(g2)))
    assert np.max(np.abs(res1)) < 1e-10 * scale
    assert np.max(np.abs(res2)) < 1e-10 * scale


def test_radial_pair_factor_zero_lambda():
    with pytest.raises(ZeroLambda):
        GEOMETRY.radial_pair(1, 5.0, 0.0, RadialPair.V1_V4P)


# ---------------------------------------------------------------------------
# Regions, unified audit, limits
# ---------------------------------------------------------------------------


def test_region_predicate_value():
    verdict = GEOMETRY.audit(1, 5.0, 2)
    assert abs(verdict.predicate - (-6.0)) < 1e-12
    assert verdict.entry.admissible
    assert verdict.predicate_consistent


def test_region_boundary_disagreement_is_reported():
    # n = 0 at m = 1/2 sits strictly inside the figure strip but its
    # level is the inadmissible lambda^2 = 0 borderline state
    verdict = GEOMETRY.audit(1, 5.0, 0)
    assert verdict.predicate < 0
    assert not verdict.entry.admissible
    assert not verdict.predicate_consistent


def test_region_reflection_applied():
    # B < 0 answers at (-m, -B), where R1 becomes R2
    verdict = GEOMETRY.audit(1, -5.0, 1)
    assert verdict.predicate == GEOMETRY.audit(-1, 5.0, 1).predicate
    assert verdict.entry.lambda_sq == GEOMETRY.quantize(-1, 5.0, 1, Component.R2).lambda_sq


def test_unified_report_exact_on_positive_m():
    report = GEOMETRY.audit(1, 5.0, 1)
    assert abs(report.unified_rhs - (-4.0)) < 1e-12
    assert abs(report.variant_rhs - 4.0) < 1e-12
    assert abs(report.discrepancy) < 1e-12
    assert report.flagged is False


def test_unified_report_flags_half_offset_on_negative_m():
    report = GEOMETRY.audit(-1, 5.0, 1)
    assert report.entry.variant is Variant.V2
    assert abs(abs(report.discrepancy) - 0.5) < 1e-12
    assert report.flagged is True


def test_flat_limit_values():
    lam_sq, target = flat_limit(1.0, 3, 10.0)
    assert abs(lam_sq - 5.91) < 1e-12
    assert abs(target - 6.0) < 1e-12
    for n in (1, 2, 3):
        for rho in (10.0, 30.0, 100.0):
            lam_sq, target = flat_limit(1.0, n, rho)
            assert abs(abs(lam_sq - target) - n * n / rho ** 2) < 1e-12


def test_flat_limit_guards():
    with pytest.raises(DomainError):
        flat_limit(0.0, 1, 10.0)
    with pytest.raises(DomainError):
        flat_limit(1.0, 1, 0.0)
    with pytest.raises(DomainError):
        flat_limit(1.0, -1, 10.0)
    # levels that are not bound: n > B, n = B, and the lambda^2 = 0 borderline
    for n, violated in ((150, "n < B"), (100, "n < B"), (0, "lambda_sq > 0")):
        with pytest.raises(InadmissibleVariant, match=violated):
            flat_limit(1.0, n, 10.0)


def test_helicity_link_values():
    sigma, ratio = helicity_link(5.0, 3.0, SigmaBranch.MINUS_P)
    assert abs(sigma + 4.0) < 1e-12 and abs(ratio - 3.0) < 1e-12
    sigma, ratio = helicity_link(5.0, 3.0, SigmaBranch.PLUS_P)
    assert abs(sigma - 4.0) < 1e-12 and abs(ratio - 1.0 / 3.0) < 1e-12


def test_helicity_link_guards():
    with pytest.raises(MasslessUnsupported):
        helicity_link(5.0, 0.0, SigmaBranch.MINUS_P)
    with pytest.raises(SubthresholdEnergy):
        helicity_link(2.0, 3.0, SigmaBranch.MINUS_P)
    with pytest.raises(DomainError):
        helicity_link(5.0, -3.0, SigmaBranch.MINUS_P)
    for epsilon, M in ((math.nan, 1.0), (2.0, math.nan), (math.inf, 1.0),
                       (2.0, math.inf), (1e200, 1.0)):
        with pytest.raises(DomainError):
            helicity_link(epsilon, M, SigmaBranch.MINUS_P)
