"""Shared domain types for the two curved-space models.

Half-integer azimuthal numbers are stored as odd integers two_m = 2m so
variant-range tests are exact. SolutionForm carries the universal shape
y^A (1-y)^C F(a,b,c;y) together with the coordinate-to-y map, and can
evaluate itself and its first two coordinate derivatives in closed form
(series derivatives plus exact chain rule), which is what the residual
oracles consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Tuple

import numpy as np

from .hyp2f1 import Hyp2F1Params, _series_or_connection

__all__ = [
    "DomainError",
    "ZeroLambda",
    "InadmissibleVariant",
    "SubthresholdEnergy",
    "MasslessUnsupported",
    "NonTerminating",
    "NonPositiveLambda",
    "NegativeDiscriminant",
    "EvaluationDomain",
    "TruncationTooSmall",
    "SupportTooCloseToSingularity",
    "Geometry",
    "Component",
    "Variant",
    "SigmaBranch",
    "Variable",
    "GeometryRecord",
    "SolutionForm",
    "SpectrumEntry",
    "RegionVerdict",
    "UnifiedReport",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class ZeroLambda(DomainError):
    """Pair construction at lambda = 0: the first-order system decouples."""


class InadmissibleVariant(DomainError):
    """Requested variant is outside its m-range or finiteness rule."""


class SubthresholdEnergy(DomainError):
    """epsilon < M: no real momentum."""


class MasslessUnsupported(DomainError):
    """M = 0 breaks the helicity-link ratio (division by mass)."""


class NonTerminating(DomainError):
    """Hypergeometric factor does not terminate where finiteness needs it."""


class NonPositiveLambda(DomainError):
    """lambda <= 0 on the canonical branch; use the symmetric branch."""


class NegativeDiscriminant(DomainError):
    """Square-root argument of a quantization relation is negative."""


class EvaluationDomain(DomainError):
    """Variable transform leaves the convergence domain of the series."""


class TruncationTooSmall(ValueError):
    """Eigenfunction mass leaks into the truncated tail of the grid."""


class SupportTooCloseToSingularity(ValueError):
    """2D check grid touches a coordinate singularity."""


class Geometry(Enum):
    H3 = "h3"
    S3 = "s3"

    @property
    def record(self) -> "GeometryRecord":
        """The space's GeometryRecord, built in lobachevsky/spherical."""
        from . import lobachevsky, spherical
        return (lobachevsky.GEOMETRY if self is Geometry.H3
                else spherical.GEOMETRY)


class Component(Enum):
    R1 = "r1"
    R2 = "r2"
    Z1 = "z1"
    Z2 = "z2"


class Variant(Enum):
    """Solution-variant tags. Unprimed variants belong to R1, primed to
    R2. The hyperbolic model uses V1/V2 and V3P/V4P; the spherical model
    uses V1/V2/V3 and V1P/V3P/V4P."""

    V1 = "1"
    V2 = "2"
    V3 = "3"
    V1P = "1p"
    V3P = "3p"
    V4P = "4p"


class SigmaBranch(Enum):
    MINUS_P = "minus_p"
    PLUS_P = "plus_p"


def _logistic(t):
    """1 / (1 + e^-t) as complex, to full relative precision for every
    real t (0 once e^-t overflows)."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t)) + 0.0j


class Variable(Enum):
    """Coordinate-to-argument maps for the four solution families."""

    YZ = "yz"        # y = (1 + tanh z)/2,  z real        -> y in (0,1)
                     #   = e^z / (2 cosh z), 1 - y = e^-z / (2 cosh z)
    YR = "yr"        # y = (1 + cosh r)/2,  r > 0         -> y in (1,inf)
    YZ_S3 = "yz_s3"  # y = (1 + i tan z)/2, |z| < pi/2    -> Re y = 1/2
    YR_S3 = "yr_s3"  # y = (1 + cos r)/2,   r in (0,pi)   -> y in (0,1)

    @property
    def geometry(self) -> Geometry:
        return Geometry.H3 if self in (Variable.YZ, Variable.YR) else Geometry.S3

    def y_of(self, x):
        x = np.asarray(x, dtype=float)
        if self is Variable.YZ:
            return _logistic(2.0 * x)
        if self is Variable.YR:
            return (1.0 + np.cosh(x)) / 2.0 + 0.0j
        if self is Variable.YZ_S3:
            return (1.0 + 1j * np.tan(x)) / 2.0
        return (1.0 + np.cos(x)) / 2.0 + 0.0j

    def y_pair(self, x):
        """(y, 1 - y) at x; on YZ both keep full relative precision (1 - y
        is not formed by cancellation as y -> 1)."""
        if self is Variable.YZ:
            x = np.asarray(x, dtype=float)
            return _logistic(2.0 * x), _logistic(-2.0 * x)
        y = self.y_of(x)
        return y, 1 - y

    def dy_dx(self, x):
        x = np.asarray(x, dtype=float)
        if self is Variable.YZ:
            return 0.5 / np.cosh(x) ** 2 + 0.0j
        if self is Variable.YR:
            return np.sinh(x) / 2.0 + 0.0j
        if self is Variable.YZ_S3:
            return 0.5j / np.cos(x) ** 2
        return -np.sin(x) / 2.0 + 0.0j

    def d2y_dx2(self, x):
        x = np.asarray(x, dtype=float)
        if self is Variable.YZ:
            return -np.tanh(x) / np.cosh(x) ** 2 + 0.0j
        if self is Variable.YR:
            return np.cosh(x) / 2.0 + 0.0j
        if self is Variable.YZ_S3:
            return 1j * np.tan(x) / np.cos(x) ** 2
        return -np.cos(x) / 2.0 + 0.0j


@dataclass(frozen=True)
class GeometryRecord:
    """What the oracle and the CLI need of one space. H3 and S3 are one
    problem with sinh <-> sin and cosh <-> cos; the two instances are
    built from the functions of lobachevsky.py and spherical.py.

    r runs over (0, r_max) and z over (-z_max, z_max); the axial stretch
    is c(z) = cosh z or cos z. mu, mu_prime take (r, m, B), and
    radial_potential (r, m, B, component). The CLI samples wavefunctions
    on r_window and z_window, chosen to keep every constructible solution
    inside its series-convergence domain while approaching the endpoints.
    region_sign is the sign of admissibility_region's figure predicate
    inside the bound region.
    """

    radial_variable: Variable
    axial_variable: Variable
    r_max: float
    z_max: float
    stretch: Callable
    stretch_prime: Callable
    mu: Callable
    mu_prime: Callable
    radial_potential: Callable
    quantize: Callable
    unified_report: Callable
    admissibility_region: Callable
    radial_solution: Callable
    r_window: Tuple[float, float]
    z_window: Tuple[float, float]
    region_sign: float
    region_predicate: str
    zero_field_note: str


@dataclass
class SolutionForm:
    """y^exp_a (1-y)^exp_c F(a,b,c;y) on the variable's coordinate line.

    Powers are principal-branch; on Yr (y > 1) the factor (1-y)^exp_c
    therefore carries the constant phase exp(i*pi*exp_c). Pair factors
    are stated for exactly this convention. A non-terminating F is summed
    directly at Re y <= 0.9 and through the 1-y connection above
    (hyp2f1._series_or_connection).
    """

    exp_a: complex
    exp_c: complex
    params: Hyp2F1Params
    variable: Variable

    def value_y(self, y):
        y = np.asarray(y, dtype=complex)
        return self._form(y, 1 - y, 0)[0]

    def derivs_y(self, y):
        """(G, dG/dy, d2G/dy2) for the full form G."""
        y = np.asarray(y, dtype=complex)
        return tuple(self._form(y, 1 - y, 2))

    def _form(self, y, w, dmax: int):
        """G and its first dmax y-derivatives at y = 1 - w. Raises
        EvaluationDomain rather than return a non-finite value."""
        if not self.params.terminating and np.any(w == 0):
            raise EvaluationDomain("1 - y underflows to 0; the form's "
                                   "hypergeometric factor is singular there")
        A, C = self.exp_a, self.exp_c
        with np.errstate(all="ignore"):
            f = _series_or_connection(self.params, y, w, dmax)
            pref = y ** A * w ** C
            out = [pref * f[0]]
            if dmax:
                lg1 = A / y - C / w
                lg2 = A * (A - 1) / y**2 - 2 * A * C / (y * w) + C * (C - 1) / w ** 2
                out += [pref * (lg1 * f[0] + f[1]),
                        pref * (lg2 * f[0] + 2 * lg1 * f[1] + f[2])]
        if not all(np.isfinite(g).all() for g in out):
            raise EvaluationDomain("form value or y-derivative not representable "
                                   "at some point (y or 1 - y too close to 0)")
        return out

    def evaluate(self, x):
        """Form value at coordinate points (z or r per `variable`)."""
        return self._form(*self.variable.y_pair(x), 0)[0]

    def evaluate_with_derivs(self, x):
        """(G, dG/dx, d2G/dx2) via exact chain rule through y(x)."""
        g0, gy, gyy = self._form(*self.variable.y_pair(x), 2)
        y1 = self.variable.dy_dx(x)
        y2 = self.variable.d2y_dx2(x)
        return g0, gy * y1, gyy * y1**2 + gy * y2


@dataclass
class SpectrumEntry:
    """One quantized level. p is None for the hyperbolic model (the
    axial momentum stays continuous there); epsilon is populated only
    when p is known. lambda_sq is None when no variant covers (m, B)."""

    lambda_sq: Optional[float]
    p: Optional[float]
    epsilon: Optional[float]
    variant: Optional[Variant]
    admissible: bool
    violated: Optional[str] = None


@dataclass
class RegionVerdict:
    """Admissibility verdict plus the figure predicate for cross-checks."""

    admissible: bool
    variant: Optional[Variant]
    violated: Optional[str]
    predicate: float
    note: str = ""


@dataclass
class UnifiedReport:
    """Unified-formula right-hand side vs the variant formula.

    discrepancy = |unified_rhs| - variant_rhs (the magnitude comparison
    absorbs the sign convention of the square root); flagged when the
    residual offset exceeds 1e-9.
    """

    unified_rhs: float
    variant_rhs: Optional[float]
    variant: Optional[Variant]
    discrepancy: Optional[float]
    flagged: Optional[bool]
