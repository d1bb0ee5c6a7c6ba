"""Spherical (S3) model layer.

Both directions quantize here: the axial momentum p = lambda + n_z + 1/2
and the radial separation constant lambda, so the total energy spectrum
epsilon = sqrt(M^2 + p^2) is fully discrete. Radial solutions come in
three pairs of an R1 and an R2 variant, one pair selected by m's
position relative to 0 and 2B: the pair whose forms are all regular
(A, C > 0), which fixes the self-adjoint extension where 2B is not an
integer and |m - 2B| < 1/2 (both local solutions are square-integrable
at r = pi there). At the tie m = 2B the pair is (3, 1').

Square roots are sqrt(B^2 + lambda^2) (no continuum on a compact
space); lambda is taken > 0. GEOMETRY is kappa = +1 (which fixes the
rest) with the variant table below and the pairs (1,3'), (2,4') and
(3,1').
"""

from __future__ import annotations

import math

from .model import (
    Component,
    DomainError,
    GeometryRecord,
    NonPositiveLambda,
    RadialPair,
    RadialVariant,
    SolutionForm,
    SpectrumEntry,
    Variant,
    _require_count,
    _require_real,
)

__all__ = [
    "GEOMETRY",
    "s3_axial_solution",
    "s3_axial_quantize",
    "s3_radial_solution",
    "s3_quantize",
    "s3_total_energy",
]

def s3_axial_quantize(lam: float, n_z: int) -> float:
    """p = lambda + n_z + 1/2 for lambda > 0 and a level n_z (an integer
    >= 0); lam's real gate runs only where p or its sign fails, and a p
    past the float range raises DomainError."""
    _require_count(n_z, "n_z")
    try:
        p = lam + n_z + 0.5
    except OverflowError:  # an int lam past the float range
        p = math.inf
    if not (lam > 0.0 and math.isfinite(p)):
        _require_real(lam, "lam")
        if lam <= 0.0:
            raise NonPositiveLambda(f"lam must be > 0, got {lam!r}")
        raise DomainError(f"p = lam + n_z + 1/2 is not finite at {lam:g}, {n_z:g}")
    return p


def s3_axial_solution(p: float, lam: float,
                      component: Component = Component.Z1) -> SolutionForm:
    """GEOMETRY.axial_solution, kept off the package root only while bench/ calls it."""
    return GEOMETRY.axial_solution(p, lam, component)


def _sphere(A: float, C: float):
    """(A, C, s, c) of a sphere row: s = A + C, c = 2A + 1/2."""
    return A, C, A + C, 2 * A + 0.5


# The six radial variants for B >= 0, with sqrt(B^2 + lambda^2) = rhs.
# quantize selects R1's row in order: 1 for m < 0, 2 below m = 2B (at
# m = 1/2 variants 1 and 2 coincide, labelled 2), else 3; R2 takes that
# row's partner, 3', 4' or 1'. Every pair so taken has A, C > 0 but one:
# at the tie m = 2B, variant 1' has A = 0. Where 2B is an integer, m
# below 2B is m up to 2B - 1/2.
_VARIANTS = (
    RadialVariant(Variant.V1, Component.R1, lambda two_m, B: two_m <= -1,
                  lambda two_m, B: two_m <= 1, "m <= 1/2",
                  lambda m, B: _sphere((2 * B - m) / 2, (1 - m) / 2),
                  lambda m, B, n: n - m + 0.5 + B, "lambda_sq > 0"),
    RadialVariant(Variant.V2, Component.R1,
                  lambda two_m, B: two_m / 2.0 < 2 * B,
                  lambda two_m, B: two_m >= 1, "1/2 <= m",
                  lambda m, B: _sphere((2 * B - m) / 2, m / 2),
                  lambda m, B, n: B + n, "lambda_sq > 0"),
    RadialVariant(Variant.V3, Component.R1, lambda two_m, B: True,
                  lambda two_m, B: two_m >= 1, "m >= 1/2",
                  lambda m, B: _sphere((m + 1 - 2 * B) / 2, m / 2),
                  lambda m, B, n: n + m + 0.5 - B, "lambda_sq > 0"),
    RadialVariant(Variant.V3P, Component.R2, None,
                  lambda two_m, B: two_m <= -1, "m <= -1/2",
                  lambda m, B: _sphere((2 * B - m + 1) / 2, -m / 2),
                  lambda m, B, n: n - m + 0.5 + B, "lambda_sq > 0"),
    RadialVariant(Variant.V4P, Component.R2, None,
                  lambda two_m, B: two_m >= -1, "m >= -1/2",
                  lambda m, B: _sphere((2 * B - m + 1) / 2, (m + 1) / 2),
                  lambda m, B, n: B + 1 + n, "lambda_sq > 0"),
    RadialVariant(Variant.V1P, Component.R2, None,
                  lambda two_m, B: two_m >= 1, "m >= 1/2",
                  lambda m, B: _sphere((m - 2 * B) / 2, (m + 1) / 2),
                  lambda m, B, n: n + m + 0.5 - B, "lambda_sq > 0"),
)


def s3_radial_solution(two_m: int, B: float, lambda_sq: float,
                       component: Component, variant: Variant) -> SolutionForm:
    """GEOMETRY.radial_solution, kept off the package root only while bench/ calls it."""
    return GEOMETRY.radial_solution(two_m, B, lambda_sq, component, variant)


def s3_quantize(two_m: int, B: float, n: int, component: Component) -> SpectrumEntry:
    """GEOMETRY.quantize, kept off the package root only while bench/ calls it."""
    return GEOMETRY.quantize(two_m, B, n, component)


def s3_total_energy(M: float, p: float) -> float:
    """epsilon = sqrt(M^2 + p^2) of the quantized axial momentum p that
    s3_axial_quantize returns; DomainError unless M, p > 0 pass the real
    gate (run only where the sum or a sign fails) and M^2 + p^2 is finite."""
    try:
        energy_sq = M * M + p * p
    except OverflowError:  # an int M or p past the float range
        energy_sq = math.inf
    if not (M > 0.0 and p > 0.0 and math.isfinite(energy_sq)):
        _require_real(M, "M", positive=True)
        _require_real(p, "p", positive=True)
        raise DomainError(f"M^2 + p^2 is not finite at M = {M}, p = {p}")
    return math.sqrt(energy_sq)


GEOMETRY = GeometryRecord(kappa=1.0, variants=_VARIANTS,
                          pairs=(RadialPair.V1_V3P, RadialPair.V2_V4P,
                                 RadialPair.V3_V1P))
