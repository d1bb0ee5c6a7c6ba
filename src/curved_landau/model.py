"""Shared domain types for the two curved-space models.

Half-integer azimuthal numbers are stored as odd integers two_m = 2m so
variant-range tests are exact. SolutionForm carries the universal shape
y^A (1-y)^C F(a,b,c;y) together with the coordinate-to-y map, and can
evaluate itself and its first two coordinate derivatives in closed form
(series derivatives plus exact chain rule), which is what the residual
oracles consume.

GeometryRecord is one space: its curvature sign kappa, which fixes the
rest, and two tables, its Variant rows and its RadialPair members.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Tuple

from ._numpy import np
from .hyp2f1 import Hyp2F1Params, eval_2f1, series_with_derivatives

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
    "RadialVariant",
    "RadialPairRow",
    "RadialPair",
    "GeometryRecord",
    "SolutionForm",
    "SpectrumEntry",
    "LevelAudit",
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
    """lambda is not a finite float > 0 where the positive separation
    constant is required."""


class NegativeDiscriminant(InadmissibleVariant):
    """Square-root argument of a quantization relation is negative."""


class EvaluationDomain(DomainError):
    """A solution form is not representable at a point: 1 - y underflows
    to 0 under a non-terminating series, or a value or y-derivative of
    the form is not a finite float (y or 1 - y too close to 0)."""


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


def _with_complement(y):
    return y, 1 - y


class Variable(Enum):
    """Coordinate-to-argument maps for the four solution families. Each
    member carries its space and, as data, its maps of coordinates x
    (taken as a float array): y_pair(x) = (y, 1 - y), dy_dx(x) and
    d2y_dx2(x). On YZ both y and 1 - y keep full relative precision
    (1 - y is not formed by cancellation as y -> 1)."""

    YZ = ("yz", Geometry.H3,  # y = (1 + tanh z)/2 = e^z / (2 cosh z) in (0, 1)
          lambda x: (_logistic(2.0 * x), _logistic(-2.0 * x)),
          lambda x: 0.5 / np.cosh(x) ** 2 + 0.0j,
          lambda x: -np.tanh(x) / np.cosh(x) ** 2 + 0.0j)
    YR = ("yr", Geometry.H3,  # y = (1 + cosh r)/2 in (1, inf) for r > 0
          lambda x: _with_complement((1.0 + np.cosh(x)) / 2.0 + 0.0j),
          lambda x: np.sinh(x) / 2.0 + 0.0j, lambda x: np.cosh(x) / 2.0 + 0.0j)
    YZ_S3 = ("yz_s3", Geometry.S3,  # y = (1 + i tan z)/2, Re y = 1/2, |z| < pi/2
             lambda x: _with_complement((1.0 + 1j * np.tan(x)) / 2.0),
             lambda x: 0.5j / np.cos(x) ** 2, lambda x: 1j * np.tan(x) / np.cos(x) ** 2)
    YR_S3 = ("yr_s3", Geometry.S3,  # y = (1 + cos r)/2 in (0, 1) for r in (0, pi)
             lambda x: _with_complement((1.0 + np.cos(x)) / 2.0 + 0.0j),
             lambda x: -np.sin(x) / 2.0 + 0.0j, lambda x: -np.cos(x) / 2.0 + 0.0j)

    def __new__(cls, value, geometry, *maps):
        member = object.__new__(cls)
        member._value_ = value
        member.geometry = geometry
        member.y_pair, member.dy_dx, member.d2y_dx2 = (
            lambda x, f=f: f(np.asarray(x, dtype=float)) for f in maps)
        return member


_SMALL_R = 1e-4
# Tail of pi beyond double precision; (math.pi - r) + _PI_TAIL gives the
# distance to the far pole of S3 at full precision (the 1/d pole
# amplifies the ~1.2e-16 representation error of math.pi by 1/d otherwise).
_PI_TAIL = 1.2246467991473532e-16


def _require_level(n, name: str = "n") -> None:
    """DomainError unless the level n (or n_z) is a non-negative integer
    (a numbers.Integral, which numpy's integer types are): a float such as
    1.5 would select a variant row and return a level or form for a state
    that does not exist."""
    if not isinstance(n, numbers.Integral) or n < 0:
        raise DomainError(f"{name} must be an integer >= 0, got {n!r}")


def _require_quantum_numbers(two_m, n=0) -> None:
    """DomainError unless two_m is an odd integer and n a level
    (_require_level)."""
    if not isinstance(two_m, numbers.Integral) or two_m % 2 == 0:
        raise DomainError(f"two_m must be an odd integer, got {two_m!r}")
    _require_level(n)


@dataclass(frozen=True)
class RadialVariant:
    """One row of a space's radial variant table, written for B >= 0;
    GeometryRecord reaches B < 0 through (m, B) -> (-m, -B), R1 <-> R2.

    The row's form is y^A (1-y)^C F(s - q, s + q; c; y) with
    q = sqrt(B^2 + kappa lambda^2); it terminates at q = rhs. quantize
    takes the first row of the component whose `selects(two_m, B)`
    holds; radial_solution demands `in_range(two_m, B)` (`range_text`).
    `exponents(m, B)` is (A, C, s, c) and `rhs(m, B, n)` the termination
    value; `violated` names the inequality that fails when rhs <= 0.
    Each row writes s, c and rhs as its closed form states them rather
    than deriving them from A and C, which would change their rounding.
    """

    variant: Variant
    component: Component
    selects: Callable[[int, float], bool]
    in_range: Callable[[int, float], bool]
    range_text: str
    exponents: Callable[[float, float], Tuple[float, float, float, float]]
    rhs: Callable[[float, float, int], float]
    violated: str


@dataclass(frozen=True)
class RadialPairRow:
    """The R1 variant r1 and R2 variant r2 sharing one spectrum, the
    value of a RadialPair member, written for B >= 0 like the variant
    rows. `primary` (r1 or r2) and `shifted` name the contiguous relation
    tying the two forms (radial_pair); the pair exists where both build."""

    r1: Variant
    r2: Variant
    primary: Variant
    shifted: bool


class RadialPair(Enum):
    """Coupled (R1, R2) variant pairs sharing one spectrum, both spaces'
    rows (as in Variant): H3 (1,4') and (2,3'), S3 (1,3'), (2,4') and
    (3,1'). radial_pair reads each factor off its row."""

    V1_V4P = RadialPairRow(Variant.V1, Variant.V4P, Variant.V1, False)
    V2_V3P = RadialPairRow(Variant.V2, Variant.V3P, Variant.V2, True)
    V1_V3P = RadialPairRow(Variant.V1, Variant.V3P, Variant.V1, True)
    V2_V4P = RadialPairRow(Variant.V2, Variant.V4P, Variant.V2, False)
    V3_V1P = RadialPairRow(Variant.V3, Variant.V1P, Variant.V1P, True)


@dataclass(frozen=True)
class GeometryRecord:
    """One space: H3 and S3 are one problem with curvature sign kappa =
    -1 / +1, from which, with the space's variant table (`variants`) and
    its RadialPair members (`pairs`), every method below is written once.
    kappa alone fixes the rest: the trig pair, the extents r in
    (0, r_max), z in (-z_max, z_max), the coordinate maps, the axial
    (P, L) = axial_pl(p, lam) and the component with the upper axial
    shape, axial_upper: (sinh, cosh, inf, inf, YR, YZ, Z1) on the open
    space, (sin, cos, pi, pi/2, YR_S3, YZ_S3, Z2) on the compact one,
    where forms need A, C > 0. radial_pair reads a pair's r2/r1 factor
    off the two forms it builds. Axial forms take the upper shape for
    axial_upper (in Euler's form on the open space); the z2/z1 factor
    follows from it and (P, L) (axial_pair). audit reads each level once
    from quantize for the unified formula and the figure predicate. mu,
    mu_prime and radial_potential raise DomainError for r outside
    (0, r_max), NaN included, or a non-finite m or B (_radius).
    """

    kappa: float
    variants: Tuple[RadialVariant, ...]
    pairs: Tuple[RadialPair, ...]
    radial_variable: Variable = field(init=False)
    axial_variable: Variable = field(init=False)
    axial_upper: Component = field(init=False)
    r_max: float = field(init=False)
    z_max: float = field(init=False)

    def __post_init__(self) -> None:
        derived = ((Variable.YR, Variable.YZ, Component.Z1, math.inf, math.inf)
                   if self.kappa < 0 else (Variable.YR_S3, Variable.YZ_S3,
                                           Component.Z2, math.pi, math.pi / 2))
        for name, value in zip(("radial_variable", "axial_variable",
                                "axial_upper", "r_max", "z_max"), derived):
            object.__setattr__(self, name, value)

    @property
    def sine(self) -> Callable:
        """np.sinh (kappa < 0) or np.sin (kappa > 0)."""
        return np.sinh if self.kappa < 0 else np.sin

    @property
    def cosine(self) -> Callable:
        """np.cosh (kappa < 0) or np.cos (kappa > 0)."""
        return np.cosh if self.kappa < 0 else np.cos

    def axial_pl(self, p: float, lam: float) -> Tuple[complex, complex]:
        """The axial (P, L): (i p, i lam) (kappa < 0) or (-p, lam)."""
        return (1j * p, 1j * lam) if self.kappa < 0 else (-p, lam)

    def stretch(self, z):
        """Axial stretch c(z) = cosh z (H3) or cos z (S3)."""
        return self.cosine(z)

    def stretch_prime(self, z):
        """c'(z) = sinh z (H3) or -sin z (S3)."""
        return -self.kappa * self.sine(z)

    def _radius(self, r, m: float, B: float):
        """r as a float array; DomainError unless every r lies in
        (0, r_max) (NaN does not) and m and B are finite."""
        arr = np.asarray(r, dtype=float)
        if not np.all((arr > 0.0) & (arr < self.r_max)):
            raise DomainError(f"r must lie in (0, {self.r_max:g})")
        if not (math.isfinite(m) and math.isfinite(B)):
            raise DomainError(f"m and B must be finite, got {m}, {B}")
        return arr

    def mu(self, r, m: float, B: float):
        """mu(r) = (m - kappa B (1 - cos r))/sin r, the radial gauge
        potential (cosh, sinh on H3), for scalar or array r.

        Below r = 1e-4 the series m/r + (kappa m/6 - B/2) r
        + (7m/360 - kappa B/24) r^3 avoids the 0/0 cancellation; on S3,
        within 1e-4 of the far pole, (m - 2B)/d + ((m - 2B)/6 + B/2) d
        with d = pi - r.
        """
        arr = self._radius(r, m, B)
        k = self.kappa
        d = (self.r_max - arr) + _PI_TAIL
        lo, hi = arr < _SMALL_R, d < _SMALL_R
        rs = np.where(lo | hi, 1.0, arr)
        direct = (m - k * B * (1.0 - self.cosine(rs))) / self.sine(rs)
        near0 = (m / arr + (k * m / 6.0 - B / 2.0) * arr
                 + (7.0 * m / 360.0 - k * B / 24.0) * arr**3)
        out = np.where(lo, near0, direct)
        if np.any(hi):
            near_pi = (m - 2 * B) / d + ((m - 2 * B) / 6.0 + B / 2.0) * d
            out = np.where(hi, near_pi, out)
        return float(out) if np.isscalar(r) else out

    def mu_prime(self, r, m: float, B: float):
        """d(mu)/dr = (-kappa B - (m - kappa B) cos r)/sin^2 r."""
        arr = self._radius(r, m, B)
        kB = self.kappa * B
        out = (-kB - (m - kB) * self.cosine(arr)) / self.sine(arr) ** 2
        return float(out) if np.isscalar(r) else out

    def radial_potential(self, r, m: float, B: float, component: Component):
        """Effective potential of the second-order radial equation:
        mu^2 + mu' for R1, mu^2 - mu' for R2 (so -R'' + V R = lambda^2 R)."""
        mu = self.mu(r, m, B)
        mup = self.mu_prime(r, m, B)
        sign = 1.0 if component is Component.R1 else -1.0
        return mu * mu + sign * mup

    @staticmethod
    def _reflect(two_m: int, B: float, component: Component):
        """Where the B >= 0 tables answer: B < 0 takes (m, B) -> (-m, -B),
        which swaps R1 and R2."""
        if B < 0.0:
            return -two_m, -B, Component.R1 if component is Component.R2 else Component.R2
        return two_m, B, component

    def _root(self, B: float, lambda_sq: float) -> float:
        """q = sqrt(B^2 + kappa lambda_sq) of the variant forms."""
        disc = B * B + self.kappa * lambda_sq
        if disc < 0.0:
            sign = "+" if self.kappa > 0 else "-"
            raise NegativeDiscriminant(f"B^2 {sign} lambda_sq < 0")
        return math.sqrt(disc)

    def row(self, variant: Variant) -> RadialVariant:
        """The variant's row of this space's table."""
        for row in self.variants:
            if row.variant is variant:
                return row
        raise DomainError(f"variant {variant.value} is not a "
                          f"{self.radial_variable.geometry.name} radial variant")

    def quantize(self, two_m: int, B: float, n: int,
                 component: Component) -> SpectrumEntry:
        """Quantized lambda^2 = kappa (rhs^2 - B^2) for level n of the
        radial component, rhs from the first row of the component whose
        selection holds.

        Inadmissible entries come back with `admissible=False` and the
        violated inequality named, never as an exception: no row (H3,
        m <= 1/2 - B), rhs <= 0, or lambda^2 <= 0. The lambda^2 = 0
        borderline levels solve the second-order equation, but the
        component pairing diverges as 1/lambda. B < 0 is answered at the
        reflected point (_reflect). Non-finite B or lambda^2: DomainError.
        """
        _require_quantum_numbers(two_m, n)
        if component not in (Component.R1, Component.R2):
            raise DomainError("component must be R1 or R2")
        if not math.isfinite(B):
            raise DomainError(f"B must be finite, got {B}")
        two_m, B, component = self._reflect(two_m, B, component)
        for row in self.variants:
            if row.component is component and row.selects(two_m, B):
                break
        else:
            return SpectrumEntry(None, None, False, violated="1/2 - B < m")
        rhs = row.rhs(two_m / 2.0, B, n)
        # kappa*rhs^2 - kappa*B^2, not kappa*(rhs^2 - B^2): +0.0 at H3 zero modes
        lambda_sq = self.kappa * rhs * rhs - self.kappa * B * B
        if not math.isfinite(lambda_sq):
            raise DomainError(f"lambda_sq is not finite at B = {B}, n = {n}")
        if rhs <= 0.0:
            return SpectrumEntry(lambda_sq, row.variant, False, row.violated)
        if lambda_sq <= 0.0:
            return SpectrumEntry(lambda_sq, row.variant, False, "lambda_sq > 0")
        return SpectrumEntry(lambda_sq, row.variant, True)

    def radial_solution(self, two_m: int, B: float, lambda_sq: float,
                        component: Component, variant: Variant) -> SolutionForm:
        """The variant's form y^A (1-y)^C F(s - q, s + q; c; y) at
        lambda_sq, q = sqrt(B^2 + kappa lambda_sq). Bound states make
        s + q (H3) or s - q (S3) a non-positive integer. B < 0 is built at
        the reflected point, as quantize answers it, so the variant
        quantize names builds the state it quantized."""
        _require_quantum_numbers(two_m)
        if component not in (Component.R1, Component.R2):
            raise DomainError("component must be R1 or R2")
        two_m, B, component = self._reflect(two_m, B, component)
        row = self.row(variant)
        if row.component is not component:
            raise DomainError(f"variant {variant.value} is an "
                              f"{row.component.name} variant")
        q = self._root(B, lambda_sq)
        if not row.in_range(two_m, B):
            raise InadmissibleVariant(
                f"variant {variant.value} requires {row.range_text}")
        A, C, s, c = row.exponents(two_m / 2.0, B)
        if math.isfinite(self.r_max) and min(A, C) <= 0.0:
            raise InadmissibleVariant(f"variant {variant.value}: exponents "
                                      f"A = {A}, C = {C} must be > 0")
        return SolutionForm(A, C, Hyp2F1Params(s - q, s + q, c),
                            self.radial_variable)

    def audit(self, two_m: int, B: float, n: int) -> LevelAudit:
        """The R1 level quantize gives at (two_m, B, n), audited two ways.

        The unified level formula q = kappa |2B - kappa m|/2 + |m|/2 + n
        (H3: -|2B + m|/2 + |m|/2 + n, S3: |2B - m|/2 + |m|/2 + n), taken
        at (m, B), against the rhs of the level's variant, taken where
        quantize evaluates it. Magnitudes are compared (on H3 the unified
        form flips the sign of the root for m > 0); the residual offset
        is flagged (H3: m < 0 rows; S3: off the variant-2 range; B < 0:
        every row, since the reflected level is an R2 level, which the R1
        formula misses by 1/2 to 1).

        The figure predicate |m| - |2B - kappa m| + 2n, which kappa *
        predicate > 0 advertises as the bound region, at the reflected
        point for B < 0. It disagrees with the level's verdict on part of
        the lattice (by 1/2 on H3 boundary entries); both are reported."""
        entry = self.quantize(two_m, B, n, Component.R1)
        m = two_m / 2.0
        unified = self.kappa * abs(2 * B - self.kappa * m) / 2 + abs(m) / 2 + n
        two_m, B, _ = self._reflect(two_m, B, Component.R1)
        m = two_m / 2.0
        predicate = abs(m) - abs(2 * B - self.kappa * m) + 2 * n
        consistent = (self.kappa * predicate > 0) == entry.admissible
        if entry.variant is None:
            return LevelAudit(entry, unified, None, None, None, predicate, consistent)
        variant_rhs = self.row(entry.variant).rhs(m, B, n)
        discrepancy = abs(unified) - variant_rhs
        return LevelAudit(entry, unified, variant_rhs, discrepancy,
                          abs(discrepancy) > 1e-9, predicate, consistent)

    def radial_pair(self, two_m: int, B: float, lambda_sq: float,
                    pair: RadialPair) -> Tuple[SolutionForm, SolutionForm, complex]:
        """(R1 form, R2 form, r2/r1 factor) of `pair`, a member of the
        record's `pairs`, at lambda_sq, as first_order_system_residual
        meters them. The pair exists where both forms build; at B < 0 R1
        is built from the pair's R2 variant and R2 from its R1 variant.
        With (a, b, c) of the primary variant's form and d = c if shifted
        else 0, k = phase (a - d)(b - d)/(lam c), phase -i on H3 and -1 on
        S3, is the factor where that form is R1 and -1/k where it is R2."""
        if pair not in self.pairs:
            raise DomainError(f"{pair} is not in the "
                              f"{self.radial_variable.geometry.name} pair table")
        if lambda_sq == 0.0:
            raise ZeroLambda("pair decouples at lambda = 0")
        if lambda_sq < 0.0:
            raise DomainError("lambda_sq must be > 0")
        spec = pair.value
        v1, v2 = (spec.r2, spec.r1) if B < 0.0 else (spec.r1, spec.r2)
        r1 = self.radial_solution(two_m, B, lambda_sq, Component.R1, v1)
        r2 = self.radial_solution(two_m, B, lambda_sq, Component.R2, v2)
        params = (r1 if spec.primary is v1 else r2).params
        # radial parameters are real; as floats k keeps its signed zeros
        a, b, c = params.a.real, params.b.real, params.c.real
        d = c if spec.shifted else 0.0
        lam = math.sqrt(lambda_sq)
        num = (-1j if self.kappa < 0 else -1.0) * ((a - d) * (b - d))
        return r1, r2, num / (lam * c) if spec.primary is v1 else -(lam * c) / num

    def axial_solution(self, p: float, lam: float, component: Component) -> SolutionForm:
        """The axial form of `component` at (p, lam). With (P, L) =
        axial_pl(p, lam) and c = P + 1/2, the axial_upper component is
        y^((1+P)/2) (1-y)^(P/2) F(c + L, c - L; c + 1; y), the other
        y^(P/2) (1-y)^((1+P)/2) F(c + L, c - L; c; y). On the compact
        space (finite z_max) p must be > 0 and F must terminate
        (p = +-lam + n_z + 1/2) for the form to stay finite at the ends.
        On the open space the forms are built in Euler's form (DLMF
        15.8.1), y^((1+P)/2) (1-y)^((1-P)/2) F(1 + L, 1 - L; c + 1; y)
        and y^(P/2) (1-y)^(-P/2) F(L, -L; c; y), whose numerators do not
        grow with p; at -p they are the second Kummer basis, Z1 <-> Z2."""
        compact = math.isfinite(self.z_max)
        if compact and p <= 0.0:
            raise DomainError("p must be > 0")
        if component not in (Component.Z1, Component.Z2):
            raise DomainError("axial component must be Z1 or Z2")
        P, L = self.axial_pl(p, lam)
        c = P + 0.5
        upper = component is self.axial_upper
        if compact:
            ends = ((1 + P) / 2, P / 2) if upper else (P / 2, (1 + P) / 2)
            params = Hyp2F1Params(c + L, c - L, c + 1 if upper else c)
        else:
            ends = ((1 + P) / 2, (1 - P) / 2) if upper else (P / 2, -P / 2)
            params = (Hyp2F1Params(1 + L, 1 - L, c + 1) if upper
                      else Hyp2F1Params(L, -L, c))
        form = SolutionForm(*ends, params, self.axial_variable)
        if compact and not form.params.terminating:
            raise NonTerminating(f"finiteness at z = +-{self.z_max:g} needs a terminating"
                                 " series: p must satisfy p = +-lambda + n_z + 1/2")
        return form

    def axial_pair(self, p: float, lam: float) -> Tuple[SolutionForm, SolutionForm, complex]:
        """(Z1 form, Z2 form, z2/z1 factor) at (p, lam), as
        first_order_system_residual meters them. With (P, L) =
        axial_pl(p, lam) and c = P + 1/2, the upper form over the lower
        is k = -i L/c: the factor is k where Z2 is the upper form (S3)
        and 1/k = c/(-i L) where Z1 is (H3). c = 0 (S3 p = 1/2) raises
        DomainError."""
        if lam == 0.0:
            raise ZeroLambda("pair decouples at lambda = 0")
        P, L = self.axial_pl(p, lam)
        c = P + 0.5
        if abs(c) < 1e-12:
            raise DomainError("c = 0 (p = 1/2)")
        factor = -1j * L / c if self.axial_upper is Component.Z2 else c / (-1j * L)
        return (self.axial_solution(p, lam, Component.Z1),
                self.axial_solution(p, lam, Component.Z2), factor)


@dataclass
class SolutionForm:
    """y^exp_a (1-y)^exp_c F(a,b,c;y) on the variable's coordinate line.

    Powers are principal-branch; on Yr (y > 1) the factor (1-y)^exp_c
    therefore carries the constant phase exp(i*pi*exp_c). Pair factors
    are stated for exactly this convention. F and its y-derivatives come
    from eval_2f1 and series_with_derivatives at the map's own 1 - y.
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
            f = (series_with_derivatives(self.params, y, w) if dmax
                 else (eval_2f1(self.params, y, w),))
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
    """One quantized radial level. lambda_sq is None when no variant
    covers (m, B)."""

    lambda_sq: Optional[float]
    variant: Optional[Variant]
    admissible: bool
    violated: Optional[str] = None


@dataclass
class LevelAudit:
    """GeometryRecord.audit of one R1 level: the quantized `entry`, the
    unified-formula right-hand side at (m, B) against the rhs of the
    entry's variant (discrepancy = |unified_rhs| - variant_rhs, flagged
    beyond 1e-9; all three None without a variant), and the figure
    predicate with whether its side agrees with entry.admissible."""

    entry: SpectrumEntry
    unified_rhs: float
    variant_rhs: Optional[float]
    discrepancy: Optional[float]
    flagged: Optional[bool]
    predicate: float
    predicate_consistent: bool
