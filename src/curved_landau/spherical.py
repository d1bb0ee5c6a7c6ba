"""Spherical (S3) model layer.

Both directions quantize here: the axial momentum p = lambda + n_z + 1/2
and the radial separation constant lambda, so the total energy spectrum
epsilon = sqrt(M^2 + p^2) is fully discrete. Radial solutions come in
three R1 variants and three R2 variants selected by m's position
relative to 0 and 2B; adjacent variants coincide identically at the
half-integer crossover points, and in the open overlap strips the
variant whose endpoint exponent is the larger (regular) indicial root
is selected.

Square roots are sqrt(B^2 + lambda^2) (no continuum on a compact
space); lambda > 0 is the canonical branch.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional

import numpy as np

from .hyp2f1 import Hyp2F1Params
from .model import (
    Component,
    DomainError,
    GeometryRecord,
    InadmissibleVariant,
    NegativeDiscriminant,
    NonPositiveLambda,
    NonTerminating,
    RegionVerdict,
    SolutionForm,
    SpectrumEntry,
    UnifiedReport,
    Variable,
    Variant,
    ZeroLambda,
)

__all__ = [
    "GEOMETRY",
    "RadialPair",
    "s3_mu_potential",
    "s3_mu_potential_prime",
    "s3_radial_potential",
    "s3_axial_solution",
    "s3_axial_quantize",
    "s3_axial_pair_factor",
    "s3_radial_solution",
    "s3_quantize",
    "s3_unified_report",
    "s3_radial_pair_factor",
    "s3_total_energy",
    "s3_admissibility_region",
]

_SMALL = 1e-4
# Tail of pi beyond double precision; (math.pi - r) + _PI_TAIL gives the
# distance to the true pole at full precision (the 1/d pole amplifies the
# ~1.2e-16 representation error of math.pi by 1/d otherwise).
_PI_TAIL = 1.2246467991473532e-16


class RadialPair(Enum):
    """Coupled (R1, R2) variant pairs sharing one spectrum."""

    V1_V3P = "1-3p"
    V2_V4P = "2-4p"
    V3_V1P = "3-1p"


def s3_mu_potential(r, m: float, B: float):
    """mu(r) = (m - B(1 - cos r))/sin r on (0, pi).

    Series branches guard both endpoints: m/r + (m/6 - B/2) r near 0 and
    (m - 2B)/d + ((m - 2B)/6 + B/2) d near r = pi (d = pi - r).
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= math.pi):
        raise DomainError("r must lie in (0, pi)")
    d = (math.pi - arr) + _PI_TAIL
    lo, hi = arr < _SMALL, d < _SMALL
    rs = np.where(lo | hi, math.pi / 2, arr)
    direct = (m - B * (1.0 - np.cos(rs))) / np.sin(rs)
    near0 = m / arr + (m / 6.0 - B / 2.0) * arr + (7.0 * m / 360.0 - B / 24.0) * arr**3
    near_pi = (m - 2 * B) / d + ((m - 2 * B) / 6.0 + B / 2.0) * d
    out = np.where(lo, near0, np.where(hi, near_pi, direct))
    return float(out) if np.isscalar(r) else out


def s3_mu_potential_prime(r, m: float, B: float):
    """d(mu)/dr = (-B - (m - B) cos r)/sin^2 r."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= math.pi):
        raise DomainError("r must lie in (0, pi)")
    out = (-B - (m - B) * np.cos(arr)) / np.sin(arr) ** 2
    return float(out) if np.isscalar(r) else out


def s3_radial_potential(r, m: float, B: float, component: Component):
    """mu^2 + mu' (R1) or mu^2 - mu' (R2): -R'' + V R = lambda^2 R."""
    mu = s3_mu_potential(r, m, B)
    mup = s3_mu_potential_prime(r, m, B)
    sign = 1.0 if component is Component.R1 else -1.0
    return mu * mu + sign * mup


def s3_axial_quantize(lam: float, n_z: int, symmetric: bool = False) -> float:
    """p = lambda + n_z + 1/2 on the canonical lambda > 0 branch.

    The symmetric termination condition (flag) serves lambda < 0 and
    gives p = -lambda + n_z + 1/2.
    """
    if n_z < 0:
        raise DomainError("n_z must be >= 0")
    if symmetric:
        if lam >= 0.0:
            raise DomainError("symmetric branch applies to lambda < 0")
        return -lam + n_z + 0.5
    if lam <= 0.0:
        raise NonPositiveLambda(
            "canonical branch needs lambda > 0; use symmetric=True for lambda < 0")
    return lam + n_z + 0.5


def s3_axial_solution(p: float, lam: float,
                      component: Component = Component.Z1) -> SolutionForm:
    """Axial solution on the complex line y = (1 + i tan z)/2.

    |y| is unbounded as z -> +-pi/2, so only terminating parameter sets
    are evaluable there; non-quantized (p, lambda) combinations raise
    NonTerminating. Z1 carries (a,b,c) with a = -p + 1/2 + lambda,
    c = 1/2 - p; Z2 the same (a,b) with c + 1.
    """
    if p <= 0.0:
        raise DomainError("p must be > 0")
    a = -p + 0.5 + lam
    b = -p + 0.5 - lam
    c = -p + 0.5
    if component is Component.Z1:
        params = Hyp2F1Params(a, b, c)
        exp_a, exp_c = -p / 2, (1 - p) / 2
    elif component is Component.Z2:
        params = Hyp2F1Params(a, b, c + 1)
        exp_a, exp_c = (1 - p) / 2, -p / 2
    else:
        raise DomainError("axial component must be Z1 or Z2")
    if not params.terminating:
        raise NonTerminating(
            "finiteness at z = +-pi/2 needs a terminating series: "
            "p must satisfy p = +-lambda + n_z + 1/2")
    return SolutionForm(exp_a, exp_c, params, Variable.YZ_S3)


def s3_axial_pair_factor(p: float, lam: float) -> complex:
    """Ratio z2/z1 = i(a-c)(b-c)/(lam c) = -i lam/c coupling (Z1, Z2)
    into the first-order axial system; c = 1/2 - p."""
    if lam == 0.0:
        raise ZeroLambda("pair decouples at lambda = 0")
    c = 0.5 - p
    if abs(c) < 1e-12:
        raise DomainError("c = 0 (p = 1/2)")
    return -1j * lam / c


_R1_VARIANTS = (Variant.V1, Variant.V2, Variant.V3)
_R2_VARIANTS = (Variant.V1P, Variant.V3P, Variant.V4P)


def _exponents(two_m: int, B: float, variant: Variant):
    """(A, C, range_ok, range_descr) for the requested variant."""
    m = two_m / 2.0
    if variant is Variant.V1:
        return (2 * B - m) / 2, (1 - m) / 2, two_m <= 1, "m <= 1/2"
    if variant is Variant.V2:
        return (2 * B - m) / 2, m / 2, two_m >= 1, "1/2 <= m"
    if variant is Variant.V3:
        return (m + 1 - 2 * B) / 2, m / 2, two_m >= 1, "m >= 1/2"
    if variant is Variant.V3P:
        return (2 * B - m + 1) / 2, -m / 2, two_m <= -1, "m <= -1/2"
    if variant is Variant.V4P:
        return (2 * B - m + 1) / 2, (m + 1) / 2, two_m >= -1, "m >= -1/2"
    if variant is Variant.V1P:
        return (m - 2 * B) / 2, (m + 1) / 2, two_m >= 1, "m >= 1/2"
    raise DomainError(f"{variant} is not a spherical radial variant")


def s3_radial_solution(two_m: int, B: float, lambda_sq: float,
                       component: Component, variant: Variant) -> SolutionForm:
    """Radial solution form on y = (1 + cos r)/2 with
    alpha, beta = A + C -+ sqrt(B^2 + lambda^2), gamma = 2A + 1/2.
    Finiteness at both poles of the sphere demands A > 0 and C > 0."""
    if component is Component.R1 and variant not in _R1_VARIANTS:
        raise DomainError(f"{variant} is not an R1 variant")
    if component is Component.R2 and variant not in _R2_VARIANTS:
        raise DomainError(f"{variant} is not an R2 variant")
    if component not in (Component.R1, Component.R2):
        raise DomainError("component must be R1 or R2")
    disc = B * B + lambda_sq
    if disc < 0.0:
        raise NegativeDiscriminant("B^2 + lambda_sq < 0")
    sq = math.sqrt(disc)
    A, C, ok, descr = _exponents(two_m, B, variant)
    if not ok:
        raise InadmissibleVariant(f"variant {variant.value} requires {descr}")
    if A <= 0.0:
        raise InadmissibleVariant(
            f"variant {variant.value}: endpoint exponent A = {A} must be > 0")
    if C <= 0.0:
        raise InadmissibleVariant(
            f"variant {variant.value}: origin exponent C = {C} must be > 0")
    return SolutionForm(A, C, Hyp2F1Params(A + C - sq, A + C + sq, 2 * A + 0.5),
                        Variable.YR_S3)


def _select_r1(two_m: int, B: float) -> Variant:
    if two_m <= -1:
        return Variant.V1
    m = two_m / 2.0
    return Variant.V2 if m <= 2 * B - 0.5 else Variant.V3


def _select_r2(two_m: int, B: float) -> Variant:
    if two_m <= -1:
        return Variant.V3P
    m = two_m / 2.0
    return Variant.V4P if m < 2 * B + 0.5 else Variant.V1P


def _variant_rhs(two_m: int, B: float, n: int, variant: Variant) -> float:
    m = two_m / 2.0
    if variant in (Variant.V1, Variant.V3P):
        return n - m + 0.5 + B
    if variant is Variant.V2:
        return B + n
    if variant is Variant.V4P:
        return B + 1 + n
    return n + m + 0.5 - B  # V3 / V1P


def s3_quantize(two_m: int, B: float, n: int, component: Component) -> SpectrumEntry:
    """Quantized lambda^2 = rhs^2 - B^2 for level n, with rhs the
    selected variant's termination value (V1/3': n - m + 1/2 + B;
    V2: B + n; V4': B + 1 + n; V3/1': n + m + 1/2 - B).

    At m = 1/2 variants 1 and 2 coincide (labelled 2); in the strip
    2B - 1 < m < 2B the larger endpoint exponent decides between 2 and
    3, and they coincide identically at m = 2B - 1/2. rhs <= B entries
    (only the lambda^2 = 0 borderline cases under this selection) are
    marked inadmissible, not raised. B < 0 reflects (m,B) -> (-m,-B)
    with R1 <-> R2.
    """
    if two_m % 2 == 0:
        raise DomainError("two_m must be odd")
    if n < 0:
        raise DomainError("n must be >= 0")
    if component not in (Component.R1, Component.R2):
        raise DomainError("component must be R1 or R2")
    if B < 0.0:
        other = Component.R2 if component is Component.R1 else Component.R1
        return s3_quantize(-two_m, -B, n, other)
    if component is Component.R1:
        variant = _select_r1(two_m, B)
    else:
        variant = _select_r2(two_m, B)
    rhs = _variant_rhs(two_m, B, n, variant)
    lambda_sq = rhs * rhs - B * B
    if rhs <= B or lambda_sq <= 0.0:
        return SpectrumEntry(lambda_sq, None, None, variant, False,
                             violated="lambda_sq > 0")
    return SpectrumEntry(lambda_sq, None, None, variant, True)


def s3_unified_report(two_m: int, B: float, n: int) -> UnifiedReport:
    """Audit of the unified spherical formula
    sqrt(B^2 + lambda^2) = |2B - m|/2 + |m|/2 + n against the selected
    R1 variant: exact on the variant-2 range, off by 1/2 for m < 0 and
    m > 2B."""
    m = two_m / 2.0
    unified = abs(2 * B - m) / 2 + abs(m) / 2 + n
    entry = s3_quantize(two_m, B, n, Component.R1)
    variant_rhs = _variant_rhs(two_m, B, n, entry.variant)
    discrepancy = abs(unified) - variant_rhs
    return UnifiedReport(unified, variant_rhs, entry.variant, discrepancy,
                         abs(discrepancy) > 1e-9)


def s3_radial_pair_factor(two_m: int, B: float, lam: float,
                          pair: RadialPair) -> complex:
    """Ratio r2/r1 coupling the radial pair into the first-order system:

        (1,3'): -(a-c)(b-c)/(lam c)           [V1 R1 parameters]
        (2,4'): -a'b'/(lam c')                [V2 R1 parameters]
        (3,1'): lam g'/((a'-g')(b'-g'))       [V1' R2 parameters]
    """
    if lam == 0.0:
        raise ZeroLambda("pair decouples at lambda = 0")
    m = two_m / 2.0
    sq = math.sqrt(B * B + lam * lam)
    if pair is RadialPair.V1_V3P:
        if two_m > 1:
            raise InadmissibleVariant("pair (1,3') requires m <= 1/2")
        A, C = (2 * B - m) / 2, (1 - m) / 2
        a, b, c = A + C - sq, A + C + sq, 2 * A + 0.5
        return -(a - c) * (b - c) / (lam * c)
    if pair is RadialPair.V2_V4P:
        if two_m < 1:
            raise InadmissibleVariant("pair (2,4') requires m >= 1/2")
        A, C = (2 * B - m) / 2, m / 2
        a, b, c = A + C - sq, A + C + sq, 2 * A + 0.5
        return -a * b / (lam * c)
    if two_m / 2.0 <= 2 * B:
        raise InadmissibleVariant("pair (3,1') requires m > 2B")
    K, L = (m - 2 * B) / 2, (m + 1) / 2
    a, b, g = K + L - sq, K + L + sq, 2 * K + 0.5
    return lam * g / ((a - g) * (b - g))


def s3_total_energy(M: float, lam: float, n_z: int) -> float:
    """epsilon = sqrt(M^2 + p^2) with p = lambda + n_z + 1/2."""
    if M <= 0.0:
        raise DomainError("M must be > 0")
    p = s3_axial_quantize(lam, n_z)
    return math.sqrt(M * M + p * p)


def s3_admissibility_region(B: float, two_m: int, n: int) -> RegionVerdict:
    """Verdict from the per-variant lambda^2 > 0 condition plus the
    figure predicate |m| - |2B - m| + 2n (advertised positive in the
    bound region; it disagrees with the exact condition on part of the
    lattice, so both are reported)."""
    note = "figure predicate > 0 marks the advertised bound region"
    mw, Bw = two_m / 2.0, B
    if B < 0.0:
        mw, Bw = -mw, -B
        note += "; reflection (m,B) -> (-m,-B) applied for B < 0"
    entry = s3_quantize(two_m, B, n, Component.R1)
    predicate = abs(mw) - abs(2 * Bw - mw) + 2 * n
    if (predicate > 0) != entry.admissible:
        note += "; predicate disagrees with the exact inequality here"
    return RegionVerdict(entry.admissible, entry.variant, entry.violated,
                         predicate, note)


GEOMETRY = GeometryRecord(
    radial_variable=Variable.YR_S3, axial_variable=Variable.YZ_S3,
    r_max=math.pi, z_max=math.pi / 2, stretch=np.cos,
    stretch_prime=lambda z: -np.sin(z),
    mu=s3_mu_potential, mu_prime=s3_mu_potential_prime,
    radial_potential=s3_radial_potential, quantize=s3_quantize,
    unified_report=s3_unified_report,
    admissibility_region=s3_admissibility_region,
    radial_solution=s3_radial_solution,
    r_window=(1e-3, math.pi - 1e-3),
    z_window=(-(math.pi / 2 - 0.1), math.pi / 2 - 0.1),
    region_sign=1.0,
    region_predicate="|m| - |2B - m| + 2n > 0 marks the advertised region",
    zero_field_note="B = 0: curvature-only confinement")
