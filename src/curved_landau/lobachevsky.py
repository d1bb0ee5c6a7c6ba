"""Hyperbolic (H3) model layer.

Radial potential mu(r), exact axial and radial solution forms, the
per-variant quantization rules with admissibility verdicts, relative
factors coupling the two radial (and axial) components, the unified
level formula audit, the flat-space limit, and the helicity/energy
link.

Conventions: B = eB and M in curvature-radius units, m half-integer
passed as two_m = 2m (odd int) wherever variant ranges matter; the
separation constant lambda is taken positive; sqrt arguments are
B^2 - lambda^2 (bound states live below the continuum edge B^2).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .hyp2f1 import ConnectionCoefficients, Hyp2F1Params, KummerBranch, kummer_connection
from .model import (
    Component,
    DomainError,
    GeometryRecord,
    InadmissibleVariant,
    MasslessUnsupported,
    SigmaBranch,
    SolutionForm,
    SpectrumEntry,
    RegionVerdict,
    SubthresholdEnergy,
    UnifiedReport,
    Variable,
    Variant,
    ZeroLambda,
)

__all__ = [
    "GEOMETRY",
    "RadialPair",
    "mu_potential",
    "mu_potential_prime",
    "radial_potential",
    "h3_axial_solution",
    "h3_axial_connection",
    "h3_axial_pair_factor",
    "h3_radial_solution",
    "h3_quantize",
    "h3_radial_pair_factor",
    "h3_admissibility_region",
    "h3_unified_report",
    "flat_limit",
    "helicity_link",
]

_SMALL_R = 1e-4


class RadialPair(Enum):
    """Coupled (R1, R2) variant pairs sharing one spectrum."""

    V1_V4P = "1-4p"
    V2_V3P = "2-3p"


def mu_potential(r, m: float, B: float):
    """mu(r) = (m - B(cosh r - 1))/sinh r, the radial gauge potential.

    Accepts scalar or array r > 0. Below r = 1e-4 the series branch
    m/r - (m/6 + B/2) r + (7m/360 + B/24) r^3 is used to avoid 0/0
    cancellation.
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("r must be > 0")
    small = arr < _SMALL_R
    rs = np.where(small, 1.0, arr)
    direct = (m - B * (np.cosh(rs) - 1.0)) / np.sinh(rs)
    series = m / arr - (m / 6.0 + B / 2.0) * arr + (7.0 * m / 360.0 + B / 24.0) * arr**3
    out = np.where(small, series, direct)
    return float(out) if np.isscalar(r) else out


def mu_potential_prime(r, m: float, B: float):
    """d(mu)/dr = (B - (m + B) cosh r)/sinh^2 r."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("r must be > 0")
    out = (B - (m + B) * np.cosh(arr)) / np.sinh(arr) ** 2
    return float(out) if np.isscalar(r) else out


def radial_potential(r, m: float, B: float, component: Component):
    """Effective potential of the second-order radial equation:
    mu^2 + mu' for R1, mu^2 - mu' for R2 (so -R'' + V R = lambda^2 R)."""
    mu = mu_potential(r, m, B)
    mup = mu_potential_prime(r, m, B)
    sign = 1.0 if component is Component.R1 else -1.0
    return mu * mu + sign * mup


def h3_axial_solution(p: float, lam: float, branch: KummerBranch,
                      component: Component = Component.Z1) -> SolutionForm:
    """Axial solution forms on y = (1 + tanh z)/2.

    `branch` picks the basis solution: U1 decays as y^(ip/2 + 1/2) at
    z -> -infinity, U5 oscillates with unit modulus as y^(-ip/2). Both
    the Z1 and Z2 members of each coupled pair are constructible; no
    quantization applies (p stays continuous).
    """
    ip, il = 1j * p, 1j * lam
    if branch is KummerBranch.U1:
        a, b, c = ip + 0.5 + il, ip + 0.5 - il, ip + 1.5
        if component is Component.Z1:
            return SolutionForm((1 + ip) / 2, ip / 2, Hyp2F1Params(a, b, c), Variable.YZ)
        if component is Component.Z2:
            return SolutionForm(ip / 2, (1 + ip) / 2, Hyp2F1Params(a, b, c - 1), Variable.YZ)
    else:
        if component is Component.Z1:
            return SolutionForm(-ip / 2, ip / 2,
                                Hyp2F1Params(il, -il, 0.5 - ip), Variable.YZ)
        if component is Component.Z2:
            return SolutionForm((1 - ip) / 2, (1 + ip) / 2,
                                Hyp2F1Params(1 + il, 1 - il, 1.5 - ip), Variable.YZ)
    raise DomainError("axial component must be Z1 or Z2")


def h3_axial_connection(p: float, lam: float,
                        which: KummerBranch) -> ConnectionCoefficients:
    """Asymptotic amplitudes (z -> +infinity) of the chosen y ~ 0 axial
    solution over the y ~ 1 Kummer basis. With a, b, c of the axial
    family, c - a - b = 1/2 - ip, never an integer for real p, so the
    connection is non-degenerate on the physical line."""
    ip, il = 1j * p, 1j * lam
    params = Hyp2F1Params(ip + 0.5 + il, ip + 0.5 - il, ip + 1.5)
    return kummer_connection(params, which)


def h3_axial_pair_factor(p: float, lam: float, pair: KummerBranch) -> complex:
    """Ratio z2/z1 coupling (Z1, Z2) of the chosen branch into the
    first-order axial system. U1: lam (c-1)/((a-c+1)(b-c+1)) which
    reduces to (ip + 1/2)/lam; U5: a'b'/(lam c') = lam/(1/2 - ip)."""
    if lam == 0.0:
        raise ZeroLambda("pair decouples at lambda = 0")
    ip, il = 1j * p, 1j * lam
    if pair is KummerBranch.U1:
        a, b, c = ip + 0.5 + il, ip + 0.5 - il, ip + 1.5
        return lam * (c - 1) / ((a - c + 1) * (b - c + 1))
    ap, bp, cp = il, -il, 0.5 - ip
    return ap * bp / (lam * cp)


def _r1_variant(two_m: int, B: float) -> Optional[Variant]:
    if two_m >= 1:
        return Variant.V1
    if two_m / 2.0 > 0.5 - B:
        return Variant.V2
    return None


def _r2_variant(two_m: int, B: float) -> Optional[Variant]:
    if two_m >= -1:
        return Variant.V4P
    if two_m / 2.0 > 0.5 - B:
        return Variant.V3P
    return None


def h3_radial_solution(two_m: int, B: float, lambda_sq: float,
                       component: Component, variant: Variant) -> SolutionForm:
    """Radial solution form on y = (1 + cosh r)/2 for the requested
    variant. The square root sqrt(B^2 - lambda_sq) must be real; bound
    states additionally make the a-parameter a non-positive integer."""
    m = two_m / 2.0
    if lambda_sq > B * B:
        raise InadmissibleVariant("lambda_sq <= B^2 violated (above the continuum edge)")
    sq = math.sqrt(B * B - lambda_sq)
    half = 0.5
    if variant is Variant.V1:
        if component is not Component.R1:
            raise DomainError("variant 1 is an R1 variant")
        if two_m < 1:
            raise InadmissibleVariant("variant 1 requires m >= 1/2")
        return SolutionForm(-B - m / 2, m / 2,
                            Hyp2F1Params(-B + sq, -B - sq, -2 * B - m + half),
                            Variable.YR)
    if variant is Variant.V2:
        if component is not Component.R1:
            raise DomainError("variant 2 is an R1 variant")
        if not (two_m <= 1 and m > half - B):
            raise InadmissibleVariant("variant 2 requires 1/2 - B < m <= 1/2")
        base = -B - m + half
        return SolutionForm(-B - m / 2, (1 - m) / 2,
                            Hyp2F1Params(base + sq, base - sq, -2 * B - m + half),
                            Variable.YR)
    if variant is Variant.V4P:
        if component is not Component.R2:
            raise DomainError("variant 4' is an R2 variant")
        if two_m < -1:
            raise InadmissibleVariant("variant 4' requires m >= -1/2")
        return SolutionForm((1 - 2 * B - m) / 2, (m + 1) / 2,
                            Hyp2F1Params(-B + 1 + sq, -B + 1 - sq, -2 * B - m + 1.5),
                            Variable.YR)
    if variant is Variant.V3P:
        if component is not Component.R2:
            raise DomainError("variant 3' is an R2 variant")
        if not (two_m <= -1 and m > half - B):
            raise InadmissibleVariant("variant 3' requires 1/2 - B < m <= -1/2")
        base = -B - m + half
        return SolutionForm((1 - 2 * B - m) / 2, -m / 2,
                            Hyp2F1Params(base + sq, base - sq, -2 * B - m + 1.5),
                            Variable.YR)
    raise DomainError(f"variant {variant} is not a hyperbolic radial variant")


def h3_quantize(two_m: int, B: float, n: int, component: Component) -> SpectrumEntry:
    """Quantized lambda^2 for level n of the selected radial component.

    Variant is selected from m's range; inadmissible entries come back
    with `admissible=False` and the violated inequality named, never as
    an exception. B < 0 is handled by the reflection
    (m, B) -> (-m, -B) which swaps R1 and R2. The borderline
    lambda^2 = 0 levels are classified inadmissible: they solve the
    second-order equation but the component pairing diverges as
    1/lambda.
    """
    if two_m % 2 == 0:
        raise DomainError("two_m must be odd")
    if n < 0:
        raise DomainError("n must be >= 0")
    if component not in (Component.R1, Component.R2):
        raise DomainError("component must be R1 or R2")
    if B < 0.0:
        other = Component.R2 if component is Component.R1 else Component.R1
        return h3_quantize(-two_m, -B, n, other)
    m = two_m / 2.0
    if component is Component.R1:
        variant = _r1_variant(two_m, B)
        rhs_of = {Variant.V1: B - n, Variant.V2: B + m - 0.5 - n}
        cond_of = {Variant.V1: "n < B", Variant.V2: "n < B + m - 1/2"}
    else:
        variant = _r2_variant(two_m, B)
        rhs_of = {Variant.V4P: B - n - 1, Variant.V3P: B + m - 0.5 - n}
        cond_of = {Variant.V4P: "n + 1 < B", Variant.V3P: "n < B + m - 1/2"}
    if variant is None:
        return SpectrumEntry(None, None, None, None, False, violated="1/2 - B < m")
    rhs = rhs_of[variant]
    lambda_sq = B * B - rhs * rhs
    if rhs <= 0.0:
        return SpectrumEntry(lambda_sq, None, None, variant, False,
                             violated=cond_of[variant])
    if lambda_sq <= 0.0:
        return SpectrumEntry(lambda_sq, None, None, variant, False,
                             violated="lambda_sq > 0")
    return SpectrumEntry(lambda_sq, None, None, variant, True)


def h3_radial_pair_factor(two_m: int, B: float, lam: float,
                          pair: RadialPair) -> complex:
    """Ratio r2/r1 coupling the radial pair into the first-order system:
    pair (1,4'): ab/(i lam c); pair (2,3'): (a'-c')(b'-c')/(i lam c')."""
    if lam == 0.0:
        raise ZeroLambda("pair decouples at lambda = 0")
    m = two_m / 2.0
    if lam * lam > B * B:
        raise DomainError("lambda^2 <= B^2 required")
    sq = math.sqrt(B * B - lam * lam)
    if pair is RadialPair.V1_V4P:
        if two_m < 1:
            raise InadmissibleVariant("pair (1,4') requires m >= 1/2")
        a, b, c = -B + sq, -B - sq, -2 * B - m + 0.5
        return a * b / (1j * lam * c)
    if not (two_m <= -1 and m > 0.5 - B):
        raise InadmissibleVariant("pair (2,3') requires 1/2 - B < m <= -1/2")
    base = -B - m + 0.5
    ap, bp, cp = base + sq, base - sq, -2 * B - m + 0.5
    return (ap - cp) * (bp - cp) / (1j * lam * cp)


def h3_admissibility_region(B: float, two_m: int, n: int) -> RegionVerdict:
    """Per-variant admissibility verdict plus the figure predicate
    |m| - |2B + m| + 2n (negative inside the advertised bound region).
    The two disagree by 1/2 on some boundary entries; both are reported.
    """
    note = "figure predicate < 0 marks the bound region"
    mw, Bw = two_m / 2.0, B
    if B < 0.0:
        mw, Bw = -mw, -B
        note += "; reflection (m,B) -> (-m,-B) applied for B < 0"
    elif B == 0.0:
        note += "; B = 0: no bound states"
    entry = h3_quantize(two_m, B, n, Component.R1)
    predicate = abs(mw) - abs(2 * Bw + mw) + 2 * n
    if (predicate < 0) != entry.admissible:
        note += "; predicate disagrees with the exact inequality here"
    return RegionVerdict(entry.admissible, entry.variant, entry.violated,
                         predicate, note)


def h3_unified_report(two_m: int, B: float, n: int) -> UnifiedReport:
    """Audit of the unified level formula
    sqrt(B^2 - lambda^2) = -|2B + m|/2 + |m|/2 + n against the selected
    variant's right-hand side. Magnitudes are compared (the unified form
    flips the sign of the square root for m > 0); the residual
    half-integer offset on m < 0 rows is flagged."""
    m = two_m / 2.0
    unified = -abs(2 * B + m) / 2 + abs(m) / 2 + n
    entry = h3_quantize(two_m, B, n, Component.R1)
    if entry.variant is None:
        return UnifiedReport(unified, None, None, None, None)
    variant_rhs = B - n if entry.variant is Variant.V1 else B + m - 0.5 - n
    discrepancy = abs(unified) - variant_rhs
    return UnifiedReport(unified, variant_rhs, entry.variant, discrepancy,
                         abs(discrepancy) > 1e-9)


def flat_limit(b_physical: float, n: int, rho: float) -> Tuple[float, float]:
    """Ground-family level at field b on a pseudosphere of radius rho,
    re-expressed in physical units, against its flat-space limit 2bn.

    lambda0_sq = (B^2 - (B-n)^2)/rho^2 with B = b rho^2, which equals
    2bn - n^2/rho^2 identically, so |lambda0_sq - 2bn| = n^2/rho^2.
    """
    if rho <= 0.0:
        raise DomainError("rho must be > 0")
    if b_physical <= 0.0:
        raise DomainError("b_physical must be > 0")
    if n < 0:
        raise DomainError("n must be >= 0")
    B = b_physical * rho * rho
    lambda_sq = B * B - (B - n) ** 2
    return lambda_sq / (rho * rho), 2.0 * b_physical * n


def helicity_link(epsilon: float, M: float,
                  branch: SigmaBranch) -> Tuple[float, float]:
    """(sigma, ratio) of the plane-wave helicity reduction: the
    generalized helicity eigenvalue sigma = -p (MinusP) or +p (PlusP)
    with p = sqrt(epsilon^2 - M^2), and the lower-to-upper bispinor
    ratio (epsilon + p)/M resp. (epsilon - p)/M."""
    if M == 0.0:
        raise MasslessUnsupported("M = 0 has no finite bispinor ratio")
    if M < 0.0:
        raise DomainError("M must be > 0")
    if epsilon < M:
        raise SubthresholdEnergy(f"epsilon = {epsilon} below mass {M}")
    p = math.sqrt(epsilon * epsilon - M * M)
    if branch is SigmaBranch.MINUS_P:
        return -p, (epsilon + p) / M
    return p, (epsilon - p) / M


GEOMETRY = GeometryRecord(
    radial_variable=Variable.YR, axial_variable=Variable.YZ,
    r_max=math.inf, z_max=math.inf, stretch=np.cosh, stretch_prime=np.sinh,
    mu=mu_potential, mu_prime=mu_potential_prime,
    radial_potential=radial_potential, quantize=h3_quantize,
    unified_report=h3_unified_report,
    admissibility_region=h3_admissibility_region,
    radial_solution=h3_radial_solution,
    r_window=(1e-3, 12.0), z_window=(-2.0, 2.0),
    region_sign=-1.0,
    region_predicate="|m| - |2B + m| + 2n < 0 marks the bound region",
    zero_field_note="B = 0: no magnetic confinement")
