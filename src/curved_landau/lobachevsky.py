"""Hyperbolic (H3) model layer.

The space's GeometryRecord, kappa = -1 (which fixes the rest) with the
radial variant table and the pairs (1,4') and (2,3'), the two Kummer
bases U1 and U5 of the axial equation (one algebra, at p and -p), the
flat-space limit, and the helicity/energy link.

Conventions: B = eB and M in curvature-radius units, m half-integer
passed as two_m = 2m (odd int) wherever variant ranges matter; the
separation constant lambda is taken positive; sqrt arguments are
B^2 - lambda^2 (bound states live below the continuum edge B^2).
"""

from __future__ import annotations

import math
from typing import Tuple

from .hyp2f1 import KummerBranch
from .model import (
    Component,
    DomainError,
    GeometryRecord,
    InadmissibleVariant,
    MasslessUnsupported,
    RadialPair,
    RadialVariant,
    SigmaBranch,
    SolutionForm,
    SpectrumEntry,
    SubthresholdEnergy,
    Variant,
    _require_real,
)

__all__ = [
    "GEOMETRY",
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


# The four radial variants for B >= 0, with sqrt(B^2 - lambda^2) = rhs.
# quantize selects R1's row in order, which picks each variant on its
# m-range: 1 for m >= 1/2, else 2; R2 takes the partner of that row, 4'
# or 3' (3' at m = -1/2 too, where variant 1 is out of range). No row
# covers m <= 1/2 - B (off the bound-state ladder).
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
    RadialVariant(Variant.V4P, Component.R2, None,
                  lambda two_m, B: two_m >= -1, "m >= -1/2",
                  lambda m, B: ((1 - 2 * B - m) / 2, (m + 1) / 2, -B + 1,
                                -2 * B - m + 1.5),
                  lambda m, B, n: B - n - 1, "n + 1 < B"),
    RadialVariant(Variant.V3P, Component.R2, None,
                  lambda two_m, B: two_m <= -1 and two_m / 2.0 > 0.5 - B,
                  "1/2 - B < m <= -1/2",
                  lambda m, B: ((1 - 2 * B - m) / 2, -m / 2, -B - m + 0.5,
                                -2 * B - m + 1.5),
                  lambda m, B, n: B + m - 0.5 - n, "n < B + m - 1/2"),
)


def h3_radial_solution(two_m: int, B: float, lambda_sq: float,
                       component: Component, variant: Variant) -> SolutionForm:
    """GEOMETRY.radial_solution, kept off the package root only while bench/ calls it."""
    return GEOMETRY.radial_solution(two_m, B, lambda_sq, component, variant)


def h3_quantize(two_m: int, B: float, n: int, component: Component) -> SpectrumEntry:
    """GEOMETRY.quantize, kept off the package root only while bench/ calls it."""
    return GEOMETRY.quantize(two_m, B, n, component)


def flat_limit(b_physical: float, n: int, rho: float) -> Tuple[float, float]:
    """Ground-family level at field b on a pseudosphere of radius rho,
    re-expressed in physical units, against its flat-space limit 2bn.

    The level is GEOMETRY.quantize's R1 lambda0_sq at two_m = 1 and
    B = b rho^2 (variant 1, rhs = B - n), divided by rho^2. It equals
    (B^2 - (B-n)^2)/rho^2 = 2bn - n^2/rho^2 identically, so
    |lambda0_sq - 2bn| = n^2/rho^2. A level that is not bound (n = 0,
    n >= B) raises InadmissibleVariant naming the violated inequality.
    """
    _require_real(rho, "rho", positive=True)
    _require_real(b_physical, "b_physical", positive=True)
    B = b_physical * rho * rho
    entry = GEOMETRY.quantize(1, B, n, Component.R1)
    if not entry.admissible:
        raise InadmissibleVariant(f"n = {n} is not bound at B = {B:g}: {entry.violated}")
    return entry.lambda_sq / (rho * rho), 2.0 * b_physical * n


def helicity_link(epsilon: float, M: float,
                  branch: SigmaBranch) -> Tuple[float, float]:
    """(sigma, ratio) of the plane-wave helicity reduction: the
    generalized helicity eigenvalue sigma = -p (MinusP) or +p (PlusP)
    with p = sqrt(epsilon^2 - M^2), and the lower-to-upper bispinor
    ratio (epsilon + p)/M resp. (epsilon - p)/M. DomainError unless epsilon
    and M pass the real gate and epsilon^2 - M^2 is a finite float."""
    _require_real(epsilon, "epsilon")
    if M == 0.0:
        raise MasslessUnsupported("M = 0 has no finite bispinor ratio")
    _require_real(M, "M", positive=True)
    if epsilon < M:
        raise SubthresholdEnergy(f"epsilon = {epsilon} below mass {M}")
    p_sq = epsilon * epsilon - M * M
    if not math.isfinite(p_sq):
        raise DomainError(f"epsilon^2 - M^2 is not finite at {epsilon}, {M}")
    p = math.sqrt(p_sq)
    if branch is SigmaBranch.MINUS_P:
        return -p, (epsilon + p) / M
    return p, (epsilon - p) / M


GEOMETRY = GeometryRecord(kappa=-1.0, variants=_VARIANTS,
                          pairs=(RadialPair.V1_V4P, RadialPair.V2_V3P))
