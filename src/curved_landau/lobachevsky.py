"""Hyperbolic (H3) model layer.

The radial variant and pair tables and the axial data behind the
space's GeometryRecord (kappa = -1, sinh, cosh), the two Kummer bases
U1 and U5 of the axial equation (one algebra, at p and -p), the
flat-space limit, and the helicity/energy link.

Conventions: B = eB and M in curvature-radius units, m half-integer
passed as two_m = 2m (odd int) wherever variant ranges matter; the
separation constant lambda is taken positive; sqrt arguments are
B^2 - lambda^2 (bound states live below the continuum edge B^2).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Tuple

import numpy as np

from .hyp2f1 import KummerBranch
from .model import (
    Component,
    DomainError,
    GeometryRecord,
    MasslessUnsupported,
    RadialPairRow,
    RadialVariant,
    SigmaBranch,
    SolutionForm,
    SpectrumEntry,
    SubthresholdEnergy,
    Variable,
    Variant,
)

__all__ = [
    "GEOMETRY",
    "RadialPair",
    "h3_axial_solution",
    "h3_radial_solution",
    "h3_quantize",
    "flat_limit",
    "helicity_link",
]


_OTHER_AXIAL = {Component.Z1: Component.Z2, Component.Z2: Component.Z1}


def h3_axial_solution(p: float, lam: float, branch: KummerBranch,
                      component: Component = Component.Z1) -> SolutionForm:
    """Axial solution forms on y = (1 + tanh z)/2.

    `branch` picks the basis solution: U1 (GEOMETRY.axial_solution)
    decays as y^(ip/2 + 1/2) at z -> -infinity, U5 oscillates with unit
    modulus as y^(-ip/2). U5 is the record's other component at -p, so
    the U5 pair's z2/z1 factor is 1 / GEOMETRY.axial_pair(-p, lam)[2].
    No quantization applies (p stays continuous).
    """
    if branch is KummerBranch.U5:
        p, component = -p, _OTHER_AXIAL.get(component, component)
    return GEOMETRY.axial_solution(p, lam, component)


def _axial_factor(P: complex, L: complex, lam: float) -> complex:
    """lam (c-1)/((a-c+1)(b-c+1)) with a, b, c = c + L, c - L, c + 1 of
    the Z1 (upper) form before Euler's transformation, which reduces to
    (ip + 1/2)/lam; kept unreduced, which rounds differently."""
    a, b, c = P + 0.5 + L, P + 0.5 - L, P + 0.5 + 1
    return lam * (c - 1) / ((a - c + 1) * (b - c + 1))


# The four radial variants for B >= 0, with sqrt(B^2 - lambda^2) = rhs.
# quantize selects in order, which picks each variant on its m-range:
# R1 takes 1 for m >= 1/2, else 2; R2 takes 4' for m >= -1/2, else 3'.
# No row covers m <= 1/2 - B (off the bound-state ladder).
_VARIANTS = (
    RadialVariant(Variant.V1, Component.R1, lambda two_m, B: two_m >= 1,
                  lambda two_m, B: two_m >= 1, "m >= 1/2",
                  lambda m, B: (-B - m / 2, m / 2, -B, -2 * B - m + 0.5),
                  lambda m, B, n: B - n, "n < B"),
    RadialVariant(Variant.V2, Component.R1, lambda two_m, B: two_m / 2.0 > 0.5 - B,
                  lambda two_m, B: two_m <= 1 and two_m / 2.0 > 0.5 - B,
                  "1/2 - B < m <= 1/2",
                  lambda m, B: (-B - m / 2, (1 - m) / 2, -B - m + 0.5,
                                -2 * B - m + 0.5),
                  lambda m, B, n: B + m - 0.5 - n, "n < B + m - 1/2"),
    RadialVariant(Variant.V4P, Component.R2, lambda two_m, B: two_m >= -1,
                  lambda two_m, B: two_m >= -1, "m >= -1/2",
                  lambda m, B: ((1 - 2 * B - m) / 2, (m + 1) / 2, -B + 1,
                                -2 * B - m + 1.5),
                  lambda m, B, n: B - n - 1, "n + 1 < B"),
    RadialVariant(Variant.V3P, Component.R2, lambda two_m, B: two_m / 2.0 > 0.5 - B,
                  lambda two_m, B: two_m <= -1 and two_m / 2.0 > 0.5 - B,
                  "1/2 - B < m <= -1/2",
                  lambda m, B: ((1 - 2 * B - m) / 2, -m / 2, -B - m + 0.5,
                                -2 * B - m + 1.5),
                  lambda m, B, n: B + m - 0.5 - n, "n < B + m - 1/2"),
)


class RadialPair(Enum):
    """Coupled (R1, R2) variant pairs sharing one spectrum, with their
    rows for GEOMETRY.pair_factor: (1,4') is ab/(i lam c) with V1's
    (a, b, c), (2,3') is (a-c)(b-c)/(i lam c) with V2's."""

    V1_V4P = RadialPairRow(Variant.V1, Variant.V4P, Variant.V1, False,
                           lambda two_m, B: two_m >= 1, "m >= 1/2")
    V2_V3P = RadialPairRow(Variant.V2, Variant.V3P, Variant.V2, True,
                           lambda two_m, B: two_m <= -1 and two_m / 2.0 > 0.5 - B,
                           "1/2 - B < m <= -1/2")


def h3_radial_solution(two_m: int, B: float, lambda_sq: float,
                       component: Component, variant: Variant) -> SolutionForm:
    """GEOMETRY.radial_solution on y = (1 + cosh r)/2."""
    return GEOMETRY.radial_solution(two_m, B, lambda_sq, component, variant)


def h3_quantize(two_m: int, B: float, n: int, component: Component) -> SpectrumEntry:
    """GEOMETRY.quantize: lambda^2 = B^2 - rhs^2 below the edge B^2."""
    return GEOMETRY.quantize(two_m, B, n, component)


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
    r_max=math.inf, z_max=math.inf, kappa=-1.0, sine=np.sinh, cosine=np.cosh,
    variants=_VARIANTS, pairs=RadialPair,
    axial_pl=lambda p, lam: (1j * p, 1j * lam), axial_upper=Component.Z1,
    axial_factor=_axial_factor,
    r_window=(1e-3, 12.0), z_window=(-2.0, 2.0),
    region_predicate="|m| - |2B + m| + 2n < 0 marks the bound region",
    zero_field_note="B = 0: no magnetic confinement")
