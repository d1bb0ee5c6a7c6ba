"""Shared domain types for the two curved-space models.

Half-integer azimuthal numbers are stored as odd integers two_m = 2m so
variant-range tests are exact. SolutionForm carries the universal shape
y^A (1-y)^C F(a,b,c;y) together with the coordinate-to-y map, and can
evaluate itself and its first two coordinate derivatives in closed form
(series derivatives plus exact chain rule), which is what the residual
oracles consume.

GeometryRecord is one space: its curvature sign kappa, which fixes the
rest, and two tables, its Variant rows and its RadialPair members.

Every layer but the 2F1 kernel takes a number argument through one of
two gates here, _require_real or _require_count, which refuse NaN, +-inf
and a number past the float range by name, with DomainError.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple

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
    """lambda <= 0 where the positive separation constant is required."""


class NegativeDiscriminant(InadmissibleVariant):
    """Square-root argument of a quantization relation is negative."""


class EvaluationDomain(DomainError):
    """A solution form is not representable at a point: 1 - y underflows
    to 0 under a non-terminating series, or a value or derivative of
    the form is not a finite float (y or 1 - y too close to 0)."""


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


def _yz(z, dmax):  # y = e^z / (2 cosh z) = 1/(1 + e^-2z) in (0, 1)
    with np.errstate(over="ignore"):  # y or 1 - y is 0 once e^-+2z overflows
        down, up = np.exp(-2.0 * z), np.exp(2.0 * z)
    y, w, logs = 1.0 / (1.0 + down), 1.0 / (1.0 + up), (-np.log1p(down), -np.log1p(up))
    if not dmax:
        return y, w, logs
    c2 = np.cosh(z) ** 2
    return y, w, logs, 0.5 / c2, -np.tanh(z) / c2


def _yz_s3(z, dmax):  # y = e^(iz) / (2 cos z) = (1 + i tan z)/2, |z| < pi/2
    t, c = np.tan(z), np.cos(z)
    y, log_y = (1.0 + 1j * t) / 2.0, 1j * z - np.log(2.0 * c)
    out = (y, 1 - y, (log_y, log_y.conjugate()))
    if not dmax:
        return out
    c2 = c ** 2
    return out + (0.5j / c2, 1j * t / c2)


def _yr(r, dmax):  # y = cosh^2(r/2) = (1 + cosh r)/2 in [1, inf)
    c, s = np.cosh(h := r * 0.5), np.sinh(h)
    y, w = c ** 2, -s ** 2
    return (y, w, None, s * c, (y - w) * 0.5) if dmax else (y, w, None)


def _yr_s3(r, dmax):  # y = cos^2(r/2) = (1 + cos r)/2 in [0, 1]
    c, s = np.cos(h := r * 0.5), np.sin(h)
    y, w = c ** 2, s ** 2
    return (y, w, None, -(s * c), (c - s) * (c + s) * -0.5) if dmax else (y, w, None)


class Variable(Enum):
    """Coordinate-to-argument maps for the four solution families. Each
    member carries its space and, as data, its map of coordinates x (a
    float array; EvaluationDomain past the float range): y_pair(x) =
    (y, 1 - y, logs) and y_pair(x, 2) = (y, 1 - y, logs, dy/dx, d2y/dx2),
    where logs is (log y, log(1 - y)) in closed form on the axial maps
    and None on the radial ones. A radial map takes y, 1 - y and the
    derivatives, in float64, from one half-angle pair c, s: on YR (cosh,
    sinh of r/2) y = c^2, 1 - y = -s^2, s c and (c^2 + s^2)/2, on YR_S3
    (cos, sin) y = c^2, 1 - y = s^2, -s c and -(c - s)(c + s)/2. YZ takes
    them in float64 too, from e^-2z and e^2z: y = 1/(1 + e^-2z),
    1 - y = 1/(1 + e^2z), log y = -log1p(e^-2z), log(1 - y) =
    -log1p(e^2z), 1/(2 cosh^2 z) and -tanh z/cosh^2 z. YZ_S3 takes them
    from one tan z and one cos z: y = (1 + i tan z)/2, log y =
    iz - log(2 cos z), exact on |z| < pi/2, and log(1 - y) its conjugate.
    None of these is formed by cancellation."""

    YZ = ("yz", Geometry.H3, _yz)
    YR = ("yr", Geometry.H3, _yr)
    YZ_S3 = ("yz_s3", Geometry.S3, _yz_s3)
    YR_S3 = ("yr_s3", Geometry.S3, _yr_s3)

    def __new__(cls, value, geometry, y_pair):
        member = object.__new__(cls)
        member._value_ = value
        member.geometry = geometry
        member.y_pair = lambda x, dmax=0: y_pair(
            _array(x, "x", float, EvaluationDomain), dmax)
        return member


_SMALL_R = 1e-4
# Tail of pi beyond double precision; (math.pi - r) + _PI_TAIL gives the
# distance to the far pole of S3 at full precision (the 1/d pole
# amplifies the ~1.2e-16 representation error of math.pi by 1/d otherwise).
_PI_TAIL = 1.2246467991473532e-16


def _require_real(x, name: str, positive: bool = False) -> None:
    """The real gate: DomainError naming x unless it is a finite float (and
    > 0 if positive). A non-number is refused too, and an int past the
    float range before a message would format it, which can itself raise."""
    try:
        if math.isfinite(x) and (not positive or x > 0.0):
            return
    except OverflowError:
        raise DomainError(f"{name} is too large for a float") from None
    except TypeError:  # not a real number
        pass
    raise DomainError(f"{name} must be finite{' and > 0' if positive else ''}, got {x!r}")


def _require_count(k, name: str, least=0, odd: bool = False) -> None:
    """The count gate: DomainError naming k unless it is an integer >=
    least (odd if odd) that converts to a float, as the level formulas
    take it (two_m / 2.0). An integer is a numbers.Integral, numpy's
    included: a float such as 1.5 would select a level that does not exist."""
    try:
        if ((type(k) is int or isinstance(k, numbers.Integral))
                and float(k) >= least and (not odd or k % 2)):
            return
    except OverflowError:
        raise DomainError(f"{name} is too large for a float") from None
    rule = "an odd integer" if odd else f"an integer >= {least}"
    raise DomainError(f"{name} must be {rule}, got {k!r}")


def _array(x, name: str, dtype=float, error=DomainError):
    """x as an array of dtype; error naming x for an int past the float range."""
    try:
        return np.asarray(x, dtype=dtype)
    except OverflowError:
        raise error(f"{name} is too large for a float") from None


@dataclass(frozen=True)
class RadialVariant:
    """One row of a space's radial variant table, written for B >= 0;
    GeometryRecord reaches B < 0 through (m, B) -> (-m, -B), R1 <-> R2.

    The row's form is y^A (1-y)^C F(s - q, s + q; c; y) with
    q = sqrt(B^2 + kappa lambda^2); it terminates at q = rhs. The row is
    R1's or R2's by its side of its pair in the record's `pairs`. Its
    form builds where `in_range(two_m, B)` holds (`range_text`) and, on
    the compact space, A, C > 0 (GeometryRecord._exponents).
    `exponents(m, B)` is (A, C, s, c) and `rhs(m, B, n)` the termination
    value; `violated` names the inequality that fails when rhs <= 0.
    Each row writes s, c and rhs as its closed form states them rather
    than deriving them from A and C, which would change their rounding.
    """

    variant: Variant
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
    follows from it and (P, L) (axial_pair). quantize and audits reach
    one level rule (_levels), so audits reads the level and rhs quantize
    gives for the unified formula and the figure predicate. mu, mu_prime
    and radial_potential raise DomainError for r outside (0, r_max), NaN
    included, or an m or B that fails the real gate (_radius). `pairs`
    lists the pairs in the order _levels tries them.
    """

    kappa: float
    variants: Tuple[RadialVariant, ...]
    pairs: Tuple[RadialPair, ...]
    radial_variable: Variable = field(init=False)
    axial_variable: Variable = field(init=False)
    axial_upper: Component = field(init=False)
    r_max: float = field(init=False)
    z_max: float = field(init=False)
    _pair_rows: Tuple[Tuple[RadialVariant, RadialVariant], ...] = field(
        init=False, repr=False)

    def __post_init__(self) -> None:
        derived = ((Variable.YR, Variable.YZ, Component.Z1, math.inf, math.inf)
                   if self.kappa < 0 else (Variable.YR_S3, Variable.YZ_S3,
                                           Component.Z2, math.pi, math.pi / 2))
        for name, value in zip(("radial_variable", "axial_variable",
                                "axial_upper", "r_max", "z_max"), derived):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_pair_rows", tuple(
            (self.row(pair.value.r1), self.row(pair.value.r2)) for pair in self.pairs))

    @property
    def sine(self) -> Callable:
        """np.sinh (kappa < 0) or np.sin (kappa > 0)."""
        return np.sinh if self.kappa < 0 else np.sin

    @property
    def cosine(self) -> Callable:
        """np.cosh (kappa < 0) or np.cos (kappa > 0)."""
        return np.cosh if self.kappa < 0 else np.cos

    def axial_pl(self, p: float, lam: float) -> Tuple[complex, complex]:
        """The axial (P, L): (i p, i lam) (kappa < 0) or (-p, lam); the
        axial arguments' gate."""
        _require_real(p, "p")
        _require_real(lam, "lam")
        return (1j * p, 1j * lam) if self.kappa < 0 else (-p, lam)

    def stretch(self, z):
        """Axial stretch c(z) = cosh z (H3) or cos z (S3)."""
        return self.cosine(z)

    def stretch_prime(self, z):
        """c'(z) = sinh z (H3) or -sin z (S3)."""
        return -self.kappa * self.sine(z)

    def _radius(self, r, m: float, B: float):
        """r as a float array; DomainError unless every r lies in
        (0, r_max) (NaN does not) and m and B pass the real gate."""
        arr = _array(r, "r")
        if not np.all((arr > 0.0) & (arr < self.r_max)):
            raise DomainError(f"r must lie in (0, {self.r_max:g})")
        _require_real(m, "m")
        _require_real(B, "B")
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
        """The one gate of the radial arguments: DomainError unless two_m
        is odd, the component is R1 or R2 and B is real (the gates). Then
        where the B >= 0 tables answer: B < 0 takes (m, B) -> (-m, -B),
        which swaps R1 and R2."""
        _require_count(two_m, "two_m", -math.inf, odd=True)
        if component not in (Component.R1, Component.R2):
            raise DomainError("component must be R1 or R2")
        _require_real(B, "B")
        if B < 0.0:
            return -two_m, -B, Component.R1 if component is Component.R2 else Component.R2
        return two_m, B, component

    def _root(self, B: float, lambda_sq: float) -> float:
        """q = sqrt(B^2 + kappa lambda_sq) of the variant forms."""
        _require_real(lambda_sq, "lambda_sq")
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

    def _exponents(self, row: RadialVariant, two_m: int, B: float,
                   refuse: bool = False) -> Optional[Tuple[float, float, float, float]]:
        """The build rule, at B >= 0: the row's (A, C, s, c) where its m-range
        holds and, on the compact space, A, C > 0; else None, or with refuse
        InadmissibleVariant naming the part that fails."""
        if row.in_range(two_m, B):
            A, C, _, _ = exponents = row.exponents(two_m / 2.0, B)
            if self.kappa < 0 or (A > 0.0 and C > 0.0):
                return exponents
            if refuse:
                raise InadmissibleVariant(f"variant {row.variant.value}: exponents "
                                          f"A = {A}, C = {C} must be > 0")
        elif refuse:
            raise InadmissibleVariant(f"variant {row.variant.value} requires {row.range_text}")
        return None

    def _levels(self, two_m: int, B: float, ns: Sequence[int],
                component: Component) -> List[Tuple[SpectrumEntry, Optional[float]]]:
        """The level rule, for one (two_m, B) column: per n of ns, the
        SpectrumEntry and the rhs of its row (None without a row).

        two_m, the component and B are checked, B < 0 reflected
        (_reflect) and the pair selected once per column: the first of
        `pairs` whose R1 form builds (_exponents) and whose R2 variant is
        in its m-range, so both components read one pair's levels. Each n
        is checked and gets its own rhs and lambda^2. kappa B^2 is hoisted
        as the left-to-right prefix kappa * B * B, so every lambda^2 keeps
        the bits of the one-level expression.
        """
        two_m, B, component = self._reflect(two_m, B, component)
        row = None
        for r1, r2 in self._pair_rows:
            if self._exponents(r1, two_m, B) is not None and r2.in_range(two_m, B):
                row = r2 if component is Component.R2 else r1
                break
        m = two_m / 2.0
        kappa = self.kappa
        kappa_b_sq = kappa * B * B
        levels = []
        for n in ns:
            _require_count(n, "n")
            if row is None:
                levels.append((SpectrumEntry(None, None, False,
                                             violated="1/2 - B < m"), None))
                continue
            rhs = row.rhs(m, B, n)
            # kappa*rhs^2 - kappa*B^2, not kappa*(rhs^2 - B^2): +0.0 at H3 zero modes
            lambda_sq = kappa * rhs * rhs - kappa_b_sq
            if not math.isfinite(lambda_sq):
                raise DomainError(f"lambda_sq is not finite at B = {B}, n = {n}")
            if rhs <= 0.0:
                entry = SpectrumEntry(lambda_sq, row.variant, False, row.violated)
            elif lambda_sq <= 0.0:
                entry = SpectrumEntry(lambda_sq, row.variant, False, "lambda_sq > 0")
            else:
                entry = SpectrumEntry(lambda_sq, row.variant, True)
            levels.append((entry, rhs))
        return levels

    def quantize(self, two_m: int, B: float, n: int,
                 component: Component) -> SpectrumEntry:
        """Quantized lambda^2 = kappa (rhs^2 - B^2) for level n of the
        radial component: the one-level case of the level rule (_levels).
        The column's pair is selected once (_levels), by radial_solution's
        build rule: R1 reads its R1 row, R2 its R2 row, so both read one
        spectrum (a zero mode shifts one member's n by 1). On S3, where 2B
        is not an integer and |m - 2B| < 1/2, both local solutions are
        square-integrable at r = pi; the pair taken, all of whose forms are
        regular (A, C > 0), fixes the self-adjoint extension there. At the
        tie m = 2B none is, and R2 is held to its m-range only: the pair is
        (3, 1'), the end rule's levels, and 1' (A = 0) does not build.

        Inadmissible entries come back with `admissible=False` and the
        violated inequality named, never as an exception: no row (H3,
        m <= 1/2 - B), rhs <= 0, or lambda^2 <= 0. The lambda^2 = 0
        borderline levels solve the second-order equation, but the
        component pairing diverges as 1/lambda. B < 0 is answered at the
        reflected point (_reflect). Non-finite B or lambda^2: DomainError.
        """
        entry, _ = self._levels(two_m, B, (n,), component)[0]
        return entry

    def radial_solution(self, two_m: int, B: float, lambda_sq: float,
                        component: Component, variant: Variant) -> SolutionForm:
        """The variant's form y^A (1-y)^C F(s - q, s + q; c; y) at
        lambda_sq, q = sqrt(B^2 + kappa lambda_sq). Bound states make
        s + q (H3) or s - q (S3) a non-positive integer. B < 0 is built at
        the reflected point, as quantize answers it, so the variant
        quantize names builds the state it quantized, except variant 1'
        at S3's tie m = 2B (A = 0; R2 for B > 0, R1 for B < 0), which
        raises InadmissibleVariant. Non-finite B or lambda_sq:
        DomainError."""
        two_m, B, component = self._reflect(two_m, B, component)
        row = self.row(variant)
        side = (Component.R1 if any(row is r1 for r1, _ in self._pair_rows)
                else Component.R2)
        if side is not component:
            raise DomainError(f"variant {variant.value} is an {side.name} variant")
        q = self._root(B, lambda_sq)
        A, C, s, c = self._exponents(row, two_m, B, refuse=True)
        return SolutionForm(A, C, Hyp2F1Params(s - q, s + q, c),
                            self.radial_variable)

    def audits(self, two_m: int, B: float, ns: Sequence[int]) -> List[LevelAudit]:
        """Per n of ns, the R1 level quantize gives at (two_m, B, n),
        audited two ways (LevelAudit), from one pass of the level rule over
        the column (_levels); audits(two_m, B, (n,))[0] audits one level.
        The unified formula kappa |2B - kappa m|/2 + |m|/2 + n, at (m, B),
        is compared in magnitude (on H3 it flips the root's sign for
        m > 0) with the rhs the level rule squared, where it evaluates it;
        the offset is flagged on H3 m < 0 rows, S3 rows off the variant-2
        range and every B < 0 row (the reflected level is an R2 level,
        which the R1 formula misses by 1/2 to 1). The figure predicate
        |m| - |2B - kappa m| + 2n, at the reflected point for B < 0,
        disagrees with the verdict on part of the lattice (by 1/2 on H3
        boundary entries). Their n-free parts are hoisted as left-to-right
        prefixes, so each audit keeps the bits of its one-level case. A 2n
        past the float range (only a column without a row gets that far)
        raises DomainError."""
        ns = list(ns)  # ns may be an iterator: read it once
        levels = self._levels(two_m, B, ns, Component.R1)
        kappa = self.kappa
        m = two_m / 2.0
        unified_free = kappa * abs(2 * B - kappa * m) / 2 + abs(m) / 2
        two_m, B, _ = self._reflect(two_m, B, Component.R1)
        m = two_m / 2.0
        predicate_free = abs(m) - abs(2 * B - kappa * m)
        audits = []
        for n, (entry, rhs) in zip(ns, levels):
            unified = unified_free + n
            # 2.0 * n has the bits of float(2 * n) but does not wrap a
            # numpy integer, and overflows to inf instead of raising
            predicate = predicate_free + 2.0 * n
            if not math.isfinite(predicate):
                raise DomainError("2n is too large for a float")
            consistent = (kappa * predicate > 0) == entry.admissible
            if rhs is None:
                audits.append(LevelAudit(entry, unified, None, None, None,
                                         predicate, consistent))
                continue
            discrepancy = abs(unified) - rhs
            audits.append(LevelAudit(entry, unified, rhs, discrepancy,
                                     abs(discrepancy) > 1e-9, predicate,
                                     consistent))
        return audits

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

    Powers are principal-branch; on YR (1 - y <= 0) the factor
    (1-y)^exp_c therefore carries the constant phase exp(i*pi*exp_c).
    Pair factors are stated for exactly this convention. F and its
    y-derivatives come from eval_2f1 and series_with_derivatives at the
    map's own 1 - y. On the radial maps, whose (y, 1 - y) and map
    derivatives are real, the prefactor |y|^exp_a |1-y|^exp_c, its
    log-derivatives and the chain rule stay in float64, and the results
    become complex once, at the end (_complex): times that phase on YR,
    a cast on YR_S3. On the axial maps the prefactor is one complex exp,
    exp(exp_a log y + exp_c log(1 - y)), of the logs the map gives in
    closed form (Variable), not two complex powers. Every form returns
    complex128, and one chain rule serves real and complex maps. value_y
    and derivs_y take y as complex, and take the prefactor as powers.
    """

    exp_a: complex
    exp_c: complex
    params: Hyp2F1Params
    variable: Variable

    def value_y(self, y):
        return self._at_y(y, 0)[0]

    def derivs_y(self, y):
        """(G, dG/dy, d2G/dy2) for the full form G."""
        return tuple(self._at_y(y, 2))

    def _at_y(self, y, dmax: int):
        """_form at y taken as complex; EvaluationDomain unless y is finite."""
        y = _array(y, "y", complex, EvaluationDomain)
        if not np.isfinite(y).all():
            raise EvaluationDomain("y must be finite")
        return self._complex(self._form(y, 1 - y, dmax), False)

    def _coordinates(self, x):
        """x as a float array; EvaluationDomain naming x unless its least and
        greatest points (NaN reaches both) are finite and in the space's
        closed range, [0, r_max] radially and [-z_max, z_max] axially."""
        x = _array(x, "x", float, EvaluationDomain)
        rec = self.variable.geometry.record
        lo, hi = ((0.0, rec.r_max) if self.variable is rec.radial_variable
                  else (-rec.z_max, rec.z_max))
        least, most = (x.min(), x.max()) if x.size else (0.0, 0.0)
        if not (lo <= least and most <= hi and math.isfinite(least) and math.isfinite(most)):
            raise EvaluationDomain(f"x must be finite and lie in [{lo:g}, {hi:g}]")
        return x

    def _form(self, y, w, dmax: int, logs=None):
        """G and its first dmax y-derivatives at y = 1 - w, principal-branch:
        complex at complex (y, w), float64 at real (y, w) (radial maps),
        with the prefactor |y|^A |w|^C, whose phase _complex puts in; given
        logs = (log y, log w), the prefactor exp(A log y + C log w).
        EvaluationDomain where 1 - y is 0 under a non-terminating series."""
        if not self.params.terminating and np.any(w == 0):
            raise EvaluationDomain("1 - y underflows to 0; the form's "
                                   "hypergeometric factor is singular there")
        A, C = self.exp_a, self.exp_c
        with np.errstate(all="ignore"):
            f = (series_with_derivatives(self.params, y, w) if dmax
                 else (eval_2f1(self.params, y, w),))
            if logs is None:
                pref = y ** A * (w if np.iscomplexobj(w) else np.abs(w)) ** C
            else:  # a zero exponent's factor is 1, as 0 ** 0 is, where its log is -inf
                pref = np.exp((A * logs[0] if A else 0.0) + (C * logs[1] if C else 0.0))
            out = [pref * f[0]]
            if dmax:
                lg1 = A / y - C / w
                lg2 = A * (A - 1) / y**2 - 2 * A * C / (y * w) + C * (C - 1) / w ** 2
                out += [pref * (lg1 * f[0] + f[1]),
                        pref * (lg2 * f[0] + 2 * lg1 * f[1] + f[2])]
        return out

    def _complex(self, out, real: bool, r=None):
        """out (value and derivatives) stacked as complex128: where real,
        the radial prefactor |y|^A |1 - y|^C, times the phase of
        (1 - y)^C, exp(i pi C) on YR, a cast on YR_S3. EvaluationDomain
        unless all are finite, save, where real, the j-th r-derivative at
        r = 0 (r given), which tends to 0 where 2C > j."""
        out = np.array(out)
        finite = np.isfinite(out).all()
        if not finite and real and r is not None:
            out[1:] = [np.where(r == 0, 0.0, g) if 2 * self.exp_c.real > j else g
                       for j, g in enumerate(out[1:], 1)]
            finite = np.isfinite(out).all()
        if not finite:
            raise EvaluationDomain("form value or derivative not representable "
                                   "at some point (y or 1 - y too close to 0)")
        if not real:
            return out
        return (out * cmath.exp(1j * math.pi * self.exp_c) if self.variable is Variable.YR
                else out.astype(complex))

    def evaluate(self, x):
        """Form value at coordinate points (z or r per `variable`)."""
        y, w, logs = self.variable.y_pair(self._coordinates(x))
        return self._complex(self._form(y, w, 0, logs), logs is None)[0]

    def evaluate_with_derivs(self, x):
        """(G, dG/dx, d2G/dx2) via exact chain rule through y(x); at
        r = 0 the limits _complex names."""
        x = self._coordinates(x)
        with np.errstate(over="ignore"):  # a map overflows only where the form raises
            y, w, logs, y1, y2 = self.variable.y_pair(x, 2)
        g0, gy, gyy = self._form(y, w, 2, logs)
        return tuple(self._complex([g0, gy * y1, gyy * y1**2 + gy * y2], logs is None, x))


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
    """One R1 level as GeometryRecord.audits audits it: the quantized
    `entry`, the unified-formula rhs at (m, B) against the entry's variant
    rhs (discrepancy = |unified_rhs| - variant_rhs, flagged beyond 1e-9;
    all three None without a variant), and the figure predicate, whose
    kappa * predicate > 0 advertises the bound region, with whether that
    side agrees with entry.admissible."""

    entry: SpectrumEntry
    unified_rhs: float
    variant_rhs: Optional[float]
    discrepancy: Optional[float]
    flagged: Optional[bool]
    predicate: float
    predicate_consistent: bool
