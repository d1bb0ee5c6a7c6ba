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
space); lambda is taken > 0. GEOMETRY has kappa = +1.
"""

from __future__ import annotations

import math
from enum import Enum

from .model import (
    Component,
    DomainError,
    GeometryRecord,
    NonPositiveLambda,
    RadialPairRow,
    RadialVariant,
    SolutionForm,
    SpectrumEntry,
    Variable,
    Variant,
    _require_level,
)

__all__ = [
    "GEOMETRY",
    "RadialPair",
    "s3_axial_solution",
    "s3_axial_quantize",
    "s3_radial_solution",
    "s3_quantize",
    "s3_total_energy",
]

def s3_axial_quantize(lam: float, n_z: int) -> float:
    """p = lambda + n_z + 1/2 for the positive separation constant
    lambda and a level n_z (an integer >= 0, as model checks n)."""
    _require_level(n_z, "n_z")
    if not 0.0 < lam < math.inf:
        raise NonPositiveLambda(f"lambda must be finite and > 0 (the positive "
                                f"root of lambda^2), got {lam!r}")
    return lam + n_z + 0.5


def s3_axial_solution(p: float, lam: float,
                      component: Component = Component.Z1) -> SolutionForm:
    """GEOMETRY.axial_solution on y = (1 + i tan z)/2: quantized p only."""
    return GEOMETRY.axial_solution(p, lam, component)


def _sphere(A: float, C: float):
    """(A, C, s, c) of a sphere row: s = A + C, c = 2A + 1/2."""
    return A, C, A + C, 2 * A + 0.5


# The six radial variants for B >= 0, with sqrt(B^2 + lambda^2) = rhs.
# quantize selects in order: R1 takes 1 for m < 0, 2 up to m = 2B - 1/2
# (at m = 1/2 variants 1 and 2 coincide, labelled 2), else 3; R2 takes
# 3' for m < 0, 4' below m = 2B + 1/2, else 1'. In the overlap strips
# this is the variant whose endpoint exponent is the larger (regular)
# indicial root; adjacent variants coincide at the crossover points.
_VARIANTS = (
    RadialVariant(Variant.V1, Component.R1, lambda two_m, B: two_m <= -1,
                  lambda two_m, B: two_m <= 1, "m <= 1/2",
                  lambda m, B: _sphere((2 * B - m) / 2, (1 - m) / 2),
                  lambda m, B, n: n - m + 0.5 + B, "lambda_sq > 0"),
    RadialVariant(Variant.V2, Component.R1,
                  lambda two_m, B: two_m / 2.0 <= 2 * B - 0.5,
                  lambda two_m, B: two_m >= 1, "1/2 <= m",
                  lambda m, B: _sphere((2 * B - m) / 2, m / 2),
                  lambda m, B, n: B + n, "lambda_sq > 0"),
    RadialVariant(Variant.V3, Component.R1, lambda two_m, B: True,
                  lambda two_m, B: two_m >= 1, "m >= 1/2",
                  lambda m, B: _sphere((m + 1 - 2 * B) / 2, m / 2),
                  lambda m, B, n: n + m + 0.5 - B, "lambda_sq > 0"),
    RadialVariant(Variant.V3P, Component.R2, lambda two_m, B: two_m <= -1,
                  lambda two_m, B: two_m <= -1, "m <= -1/2",
                  lambda m, B: _sphere((2 * B - m + 1) / 2, -m / 2),
                  lambda m, B, n: n - m + 0.5 + B, "lambda_sq > 0"),
    RadialVariant(Variant.V4P, Component.R2,
                  lambda two_m, B: two_m / 2.0 < 2 * B + 0.5,
                  lambda two_m, B: two_m >= -1, "m >= -1/2",
                  lambda m, B: _sphere((2 * B - m + 1) / 2, (m + 1) / 2),
                  lambda m, B, n: B + 1 + n, "lambda_sq > 0"),
    RadialVariant(Variant.V1P, Component.R2, lambda two_m, B: True,
                  lambda two_m, B: two_m >= 1, "m >= 1/2",
                  lambda m, B: _sphere((m - 2 * B) / 2, (m + 1) / 2),
                  lambda m, B, n: n + m + 0.5 - B, "lambda_sq > 0"),
)


class RadialPair(Enum):
    """Coupled (R1, R2) variant pairs sharing one spectrum, with their
    rows for GEOMETRY.radial_pair: factor -(a-c)(b-c)/(lam c) for (1,3')
    and -ab/(lam c) for (2,4') with V1's and V2's (a, b, c), and
    lam c/((a-c)(b-c)) for (3,1') with those of the R2 row 1'."""

    V1_V3P = RadialPairRow(Variant.V1, Variant.V3P, Variant.V1, True)
    V2_V4P = RadialPairRow(Variant.V2, Variant.V4P, Variant.V2, False)
    V3_V1P = RadialPairRow(Variant.V3, Variant.V1P, Variant.V1P, True)


def s3_radial_solution(two_m: int, B: float, lambda_sq: float,
                       component: Component, variant: Variant) -> SolutionForm:
    """GEOMETRY.radial_solution on y = (1 + cos r)/2."""
    return GEOMETRY.radial_solution(two_m, B, lambda_sq, component, variant)


def s3_quantize(two_m: int, B: float, n: int, component: Component) -> SpectrumEntry:
    """GEOMETRY.quantize: lambda^2 = rhs^2 - B^2, fully discrete."""
    return GEOMETRY.quantize(two_m, B, n, component)


def s3_total_energy(M: float, p: float) -> float:
    """epsilon = sqrt(M^2 + p^2) of the quantized axial momentum p that
    s3_axial_quantize returns; DomainError unless M > 0 and p is finite
    and > 0, or where M^2 + p^2 is not a finite float."""
    if M <= 0.0:
        raise DomainError("M must be > 0")
    if not 0.0 < p < math.inf:
        raise DomainError(f"p must be a finite axial momentum > 0, got {p!r}")
    energy_sq = M * M + p * p
    if not math.isfinite(energy_sq):
        raise DomainError(f"M^2 + p^2 is not finite at M = {M}, p = {p}")
    return math.sqrt(energy_sq)


GEOMETRY = GeometryRecord(
    radial_variable=Variable.YR_S3, axial_variable=Variable.YZ_S3,
    kappa=1.0, variants=_VARIANTS, pairs=RadialPair,
    axial_pl=lambda p, lam: (-p, lam), axial_upper=Component.Z2,
    r_window=(1e-3, math.pi - 1e-3),
    z_window=(-(math.pi / 2 - 0.1), math.pi / 2 - 0.1),
    region_predicate="|m| - |2B - m| + 2n > 0 marks the advertised region",
    zero_field_note="B = 0: curvature-only confinement")
