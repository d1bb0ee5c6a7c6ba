"""Independent numerical verification layer.

Everything here cross-checks the closed-form layer without reusing its
algebra: a staggered-grid eigensolver for the first-order radial pair
reproduces the bound-state lambda^2 sets from mu alone; residual
evaluators substitute constructed solutions into the second-order
equations and the coupled first-order systems; a grid commutator check
confirms that the generalized helicity operator commutes with the
reduced Hamiltonian; and a connection-formula check integrates the axial
equation across the interval and compares with the two-term
recombination near y = 1. Each residual meter reports the sup of its
residual relative to its inputs and, where it is measured, the
convergence order of a finite-difference pathway. Every number argument
passes model's real or count gate first (the record's _reflect for two_m
and B), so NaN, +-inf or a number past the float range is refused by
name, with DomainError, before a meter runs.

Eigensolver design: the radial pair L f1 = lambda f2, L^dagger f2 =
lambda f1 with L = d/dr - mu is discretized with f1 and f2 alternating
every half step, which turns L into a bidiagonal K and the problem into
the symmetric tridiagonal K^T K on the f1 slots (Golub & Kahan, SIAM J.
Numer. Anal. B 2 (1965) 205); each end pins the component that mu's
pole residue says vanishes there. Eigenvalues come from LAPACK's
deterministic Sturm-sequence bisection on two grids and are
Richardson-extrapolated.

This module is reached as ``curved_landau.oracle``: the package root
and the CLI do not import it, and of the verification suites only
radial, axial, commutator and pairs do, when they run. scipy is
imported inside the eigensolver, the only caller that needs it, and
numpy is bound lazily (curved_landau._numpy), so importing this module
loads the standard library alone; numpy loads at the first numpy call,
scipy at the first eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ._numpy import np
from .hyp2f1 import DegenerateConnection, kummer_connection, u2_value, u6_value
from .model import (
    Component,
    DomainError,
    Geometry,
    SolutionForm,
    ZeroLambda,
    _require_count,
    _require_real,
)

__all__ = [
    "TruncationTooSmall",
    "SupportTooCloseToSingularity",
    "Grid1D",
    "Grid2D",
    "ResidualReport",
    "EigenReport",
    "radial_eigenvalues_h3",
    "radial_eigenvalues_s3",
    "ode_residual",
    "first_order_system_residual",
    "commutator_residual",
    "gaussian_bump_spinor",
    "axial_connection_check",
]

_SINGULAR_INSET = 0.05
_EDGE_TRIM = 3


class TruncationTooSmall(ValueError):
    """Eigenfunction mass leaks into the truncated tail of the grid."""


class SupportTooCloseToSingularity(ValueError):
    """2D check grid touches a coordinate singularity."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid with `points` nodes on [lo, hi]: DomainError unless
    lo and hi pass the real gate, lo < hi, and points the count gate
    (an integer >= 16)."""

    lo: float
    hi: float
    points: int

    def __post_init__(self) -> None:
        _require_real(self.lo, "lo")
        _require_real(self.hi, "hi")
        if not self.lo < self.hi:
            raise DomainError("grid needs lo < hi")
        _require_count(self.points, "points", 16)

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)

    def scaled(self, factor: int) -> "Grid1D":
        """Same ends, spacing divided by `factor` (the nodes nest)."""
        return Grid1D(self.lo, self.hi, (self.points - 1) * factor + 1)


@dataclass(frozen=True)
class Grid2D:
    """Tensor grid for (r, z) fields: one Grid1D per axis."""

    r: Grid1D
    z: Grid1D

    def __post_init__(self) -> None:
        if not (isinstance(self.r, Grid1D) and isinstance(self.z, Grid1D)):
            raise DomainError("Grid2D takes a Grid1D per axis")

    # the node counts bench/spans.py meters the commutator probe by
    @property
    def r_points(self) -> int:
        return self.r.points

    @property
    def z_points(self) -> int:
        return self.z.points

    def scaled(self, factor: int) -> "Grid2D":
        """Both axes Grid1D.scaled by `factor`."""
        return Grid2D(self.r.scaled(factor), self.z.scaled(factor))


@dataclass(frozen=True)
class ResidualReport:
    """max_abs: the sup of a residual relative to its inputs: to the sup
    of the form (ODE), the sum of the magnitudes of each equation's
    terms at each point (first-order systems: an exact pair reads at
    rounding level however large the terms grow), the sup of the test
    spinor (commutator) or the sup of the predicted solution
    (connection). convergence_order (when measured) comes from
    finite-difference refinements and is floored at 0. Both pass the
    real gate, and max_abs must be >= 0."""

    max_abs: float
    convergence_order: Optional[float] = None

    def __post_init__(self) -> None:
        _require_real(self.max_abs, "max_abs")
        if self.max_abs < 0:
            raise DomainError(f"max_abs must be >= 0, got {self.max_abs!r}")
        if self.convergence_order is not None:
            _require_real(self.convergence_order, "convergence_order")


@dataclass(frozen=True)
class EigenReport:
    eigenvalues: Tuple[float, ...]

    def __post_init__(self) -> None:
        vals = self.eigenvalues
        for v in vals:
            _require_real(v, "eigenvalues")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise DomainError("eigenvalues must be ascending")


# ---------------------------------------------------------------------------
# Eigensolver
# ---------------------------------------------------------------------------


def _pair_matrix(rec, m: float, B: float, lo: float, hi: float, points: int):
    """(d, e, r1, h): K^T K, tridiagonal on the f1 slots r1 of a staggered
    grid on [lo, hi] where f1 and f2 alternate every h/2 from lo, and K is
    L = d/dr - mu on the f2 slots: (f1(r + h/2) - f1(r - h/2))/h
    - mu(r) (f1(r + h/2) + f1(r - h/2))/2. Each end slot holds the
    component its local solution pins to 0, read from mu's pole residue:
    f2 at r = 0 when m > 0 (mu ~ m/r), f2 at S3's far pole when 2B - m > 0
    (mu ~ (m - 2B)/(pi - r)), else f1; f1 at a truncation."""
    lo_f2 = m > 0.0
    hi_f2 = hi > rec.r_max - 1e-9 and 2.0 * B - m > 0.0
    slots = 2 * (points - 1) - (lo_f2 != hi_f2)  # half-steps from lo to hi
    h = 2.0 * (hi - lo) / slots
    # one row of K per f2 slot, and a zero row past a pinned f1 end
    k = np.arange(0 if lo_f2 else -1, slots + (1 if hi_f2 else 2), 2)
    inside = (k > 0) & (k < slots)
    half_mu = np.zeros(k.size)
    half_mu[inside] = rec.mu(lo + k[inside] * (h / 2.0), m, B) / 2.0
    left = np.where(inside, -1.0 / h - half_mu, 0.0)
    right = np.where(inside, 1.0 / h - half_mu, 0.0)
    d = right[:-1] ** 2 + left[1:] ** 2
    e = left[1:-1] * right[1:-1]
    r1 = lo + (k[:-1] + 1) * (h / 2.0)
    keep = slice(0 if lo_f2 else 1, None if hi_f2 else -1)  # f1 ends pinned
    return d[keep], e[keep], r1[keep], h


def _radial_eigenvalues(rec, two_m: int, B: float, grid: Grid1D,
                        max_count: int) -> EigenReport:
    """Lowest lambda^2 values, at most max_count, of the first-order pair
    L f1 = lambda f2, L^dagger f2 = lambda f1 with L = d/dr - mu, in rec's
    space at m = two_m/2 (DomainError unless two_m is an odd integer);
    both components share them. B < 0 is solved at (-m, -B), which swaps f1
    and f2, so that every zero mode is f1's. The eigenvalues of K^T K
    (_pair_matrix) on grid and on (points + 1)//2 nodes are Richardson-
    extrapolated at order 2 with the exact spacing ratio, level by level.
    With kappa < 0 only values below the continuum edge B^2 count, and
    grid.hi must reach mu^2 ~ B^2.
    """
    from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

    two_m, B, _ = rec._reflect(two_m, B, Component.R1)  # the arguments' gate
    if grid.lo < 0.0 or grid.hi > rec.r_max + 1e-12:
        raise DomainError(f"grid must lie within [0, {rec.r_max:g}]")
    _require_count(max_count, "max_count", 1)
    m, edge = two_m / 2.0, (B * B if rec.kappa < 0.0 else math.inf)
    if edge < math.inf and (abs(rec.mu(grid.hi, m, B) ** 2 - edge)
                            > 1e-3 * max(1.0, edge)):
        raise DomainError(
            "grid.hi too small: mu^2 has not reached its asymptote B^2")

    def solve(points):
        d, e, r1, h = _pair_matrix(rec, m, B, grid.lo, grid.hi, points)
        if edge < math.inf:  # K^T K >= 0
            vals = eigvalsh_tridiagonal(d, e, select="v", select_range=(-1.0, edge))
        else:
            vals = eigvalsh_tridiagonal(
                d, e, select="i", select_range=(0, min(max_count, d.size) - 1))
        return vals[vals < edge][:max_count], d, e, r1, h

    fine, d, e, r1, h = solve(grid.points)
    if fine.size and grid.hi < rec.r_max - 0.01:
        _, vec = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
        w = vec[:, 0] ** 2
        if w[r1 >= grid.hi - 0.1 * (grid.hi - grid.lo)].sum() / w.sum() > 1e-6:
            raise TruncationTooSmall(
                "ground state carries > 1e-6 of its mass in the outer 10% "
                "of the truncated domain; increase hi")
    coarse, *_, h_coarse = solve((grid.points + 1) // 2)
    n = min(fine.size, coarse.size)
    vals = fine[:n] + (fine[:n] - coarse[:n]) / ((h_coarse / h) ** 2 - 1.0)
    return EigenReport(tuple(float(v) for v in vals[vals < edge]))


def radial_eigenvalues_h3(two_m: int, B: float, grid: Grid1D) -> EigenReport:
    """Bound-state lambda^2 values (below the continuum edge B^2) of the
    hyperbolic radial pair at m = two_m/2 on (0, grid.hi), grid.lo >= 0."""
    return _radial_eigenvalues(Geometry.H3.record, two_m, B, grid, grid.points)


def radial_eigenvalues_s3(two_m: int, B: float, grid: Grid1D,
                          max_count: int = 8) -> EigenReport:
    """Lowest lambda^2 values of the spherical radial pair at m = two_m/2
    on a grid within [0, pi]; the spectrum is fully discrete."""
    return _radial_eigenvalues(Geometry.S3.record, two_m, B, grid, max_count)


# ---------------------------------------------------------------------------
# ODE residuals
# ---------------------------------------------------------------------------


def _central_differences(f: np.ndarray, h: float):
    """Samples f on the interior nodes with their central first and
    second differences at spacing h: the finite-difference pathway of
    the residual meters, independent of the analytic derivative
    formulas."""
    return (f[1:-1], (f[2:] - f[:-2]) / (2.0 * h),
            (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h))


def _sup_over_scale(r: np.ndarray, f: np.ndarray) -> float:
    """sup |r| relative to sup |f| (taken as 1 where f vanishes)."""
    scale = float(np.max(np.abs(f)))
    return float(np.max(np.abs(r))) / (scale if scale > 0 else 1.0)


def _order_from(coarse: float, fine: float) -> float:
    if fine <= 0 or coarse <= 0:
        return 0.0
    return max(0.0, math.log2(coarse / fine))


def ode_residual(solution: SolutionForm, component: Component, grid: Grid1D,
                 *, p: Optional[float] = None, lam: Optional[float] = None,
                 two_m: Optional[int] = None, B: Optional[float] = None,
                 lambda_sq: Optional[float] = None) -> ResidualReport:
    """Substitute `solution` as `component` into its second-order
    equation, on the space and coordinate of solution.variable. With the
    axial stretch c = cosh z (H3) or cos z (S3):

        Axial:  Z'' + (c'/c) Z' + (p^2 +- i p c'/c - lambda^2/c^2) Z = 0
                ('+' for Z1, '-' for Z2).
        Radial: -R'' + (mu^2 +- mu') R = lambda^2 R ('+' for R1).

    max_abs uses the analytic derivatives of the constructed form
    (term-wise series differentiation plus exact chain rule), so an
    exact solution sits at rounding level; convergence_order is
    measured on the independent finite-difference pathway at h (on the
    analytic pass's values) and h/2 and is ~2 for an exact solution, ~0
    for a wrong one. Radial equations need an odd integer two_m, the m
    the form was built at, and p, lam, B and lambda_sq pass the real
    gate; past that the meter adds no domain rule: a grid point that
    the form, the 2F1 kernel or mu refuses raises their typed error.
    """
    rec = solution.variable.geometry.record
    axial = component in (Component.Z1, Component.Z2)
    if solution.variable is not (rec.axial_variable if axial
                                 else rec.radial_variable):
        raise DomainError(f"solution is parametrized on "
                          f"{solution.variable.name}, not on the "
                          f"coordinate of {component.name}")
    if axial:
        _require_real(p, "p")
        _require_real(lam, "lam")
        sign = 1.0 if component is Component.Z1 else -1.0

        def res_fn(x, g, g1, g2):
            c = rec.stretch(x)
            t = rec.stretch_prime(x) / c
            return g2 + t * g1 + (p * p + sign * 1j * p * t - lam * lam / c ** 2) * g
    else:
        rec._reflect(two_m, B, component)
        _require_real(lambda_sq, "lambda_sq")
        m = two_m / 2.0

        def res_fn(x, g, g1, g2):
            return -g2 + (rec.radial_potential(x, m, B, component) - lambda_sq) * g
    xs = grid.nodes()
    analytic = solution.evaluate_with_derivs(xs)

    def fd_sup(at: Grid1D, f) -> float:  # f: the form on at's nodes
        return _sup_over_scale(
            res_fn(at.nodes()[1:-1], *_central_differences(f, at.spacing)), f)

    fine = grid.scaled(2)
    return ResidualReport(_sup_over_scale(res_fn(xs, *analytic), analytic[0]),
                          _order_from(fd_sup(grid, analytic[0]),
                                      fd_sup(fine, solution.evaluate(fine.nodes()))))


# ---------------------------------------------------------------------------
# First-order system residuals
# ---------------------------------------------------------------------------


def first_order_system_residual(
        pair: Tuple[SolutionForm, SolutionForm, complex], grid: Grid1D, *,
        lam: float, p: Optional[float] = None, two_m: Optional[int] = None,
        B: Optional[float] = None) -> ResidualReport:
    """Residual of both coupled equations for (f1, ratio * f2), on the
    space and coordinate of the pair's forms. With the axial stretch
    c = cosh z (H3) or cos z (S3):

        Axial:  c (f1' + i p f1) = lambda f2,  c (f2' - i p f2) = lambda f1.
        Radial: f1' - mu f1 = lambda f2,       f2' + mu f2 = -lambda f1.

    Each equation's residual is divided, point by point, by the sum of
    the magnitudes of its terms (|c| (|f'| + |p f|) + |lambda f_other|
    axial, |f'| + |mu f| + |lambda f_other| radial; 1e-300 where all
    vanish), so an exact pair reads at rounding level wherever the
    terms are large and cancel. The relative factor is part of the claim
    under test: the correct factor brings both residuals to rounding
    level; any rescaling leaves an O(1) defect. two_m, a non-finite
    lam, p or B and grid points are refused as in ode_residual.
    """
    _require_real(lam, "lam")
    if lam == 0.0:
        raise ZeroLambda("first-order systems decouple at lambda = 0")
    sol1, sol2, ratio = pair
    if sol2.variable is not sol1.variable:
        raise DomainError("the pair's forms live on different coordinates")
    rec = sol1.variable.geometry.record
    if sol1.variable is rec.axial_variable:
        _require_real(p, "p")

        def terms(x, f1, d1, f2, d2):
            c = rec.stretch(x)
            return ((c * d1, 1j * p * c * f1, -lam * f2),
                    (c * d2, -1j * p * c * f2, -lam * f1))
    else:
        rec._reflect(two_m, B, Component.R1)
        m = two_m / 2.0

        def terms(x, f1, d1, f2, d2):
            mu = rec.mu(x, m, B)
            return (d1, -mu * f1, -lam * f2), (d2, mu * f2, lam * f1)

    def relative(x, f1, d1, f2, d2):
        """Both equations' residuals over the sums of their terms' sizes."""
        return [np.abs(sum(eq)) / np.maximum(sum(np.abs(t) for t in eq), 1e-300)
                for eq in terms(x, f1, d1, f2, d2)]

    xs = grid.nodes()
    g1, d1, _ = sol1.evaluate_with_derivs(xs)
    g2, d2, _ = sol2.evaluate_with_derivs(xs)
    r1, r2 = relative(xs, g1, d1, ratio * g2, ratio * d2)

    def fd_sup(at: Grid1D, f1, f2) -> float:  # f1, f2: the forms on at's nodes
        v1, c1, _ = _central_differences(f1, at.spacing)
        v2, c2, _ = _central_differences(ratio * f2, at.spacing)
        return max(float(np.max(r))
                   for r in relative(at.nodes()[1:-1], v1, c1, v2, c2))

    fine = grid.scaled(2)
    x = fine.nodes()
    return ResidualReport(max(float(np.max(r1)), float(np.max(r2))),
                          _order_from(fd_sup(grid, g1, g2),
                                      fd_sup(fine, sol1.evaluate(x), sol2.evaluate(x))))


# ---------------------------------------------------------------------------
# Commutator check
# ---------------------------------------------------------------------------

# Each gamma matrix and product the probe applies is a signed permutation
# (one entry of modulus 1 per row and column), kept as its table: per
# output component a, (row, phase), so that component a of g psi is
# phase * psi[row]. The Pauli matrices sigma_k as tables:
_PAULI = (((1, 1), (0, 1)), ((1, -1j), (0, 1j)), ((0, 1), (1, -1)))


def _gamma(k: int):
    """The table of gamma_k = [[0, sigma_k], [-sigma_k, 0]]."""
    s = _PAULI[k - 1]
    return (tuple((row + 2, complex(phase)) for row, phase in s)
            + tuple((row, -complex(phase)) for row, phase in s))


def _product(g, h):
    """The table of g h: component a of g (h psi) is phase (h psi)[row]."""
    return tuple((h[row][0], phase * h[row][1]) for row, phase in g)


_G1, _G2, _G3 = (_gamma(k) for k in (1, 2, 3))
_G23, _G31, _G12 = _product(_G2, _G3), _product(_G3, _G1), _product(_G1, _G2)
_G123 = _product(_G12, _G3)


def _term(g, a: int, comps, coef=1):
    """coef times component a of g psi, psi given by its components
    comps: coef phase comps[row]. coef is a unit (1, -1, i, -i) or a
    unit times a real array; times the unit phase it has one zero part,
    so the product rounds as coef (phase comps[row]) does, and a unit
    coefficient is exact."""
    row, phase = g[a]
    coef = coef * phase
    return comps[row] if np.isscalar(coef) and coef == 1 else coef * comps[row]


def _central(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    """The central difference of f along axis (0 or 1) at spacing h, on
    the window one cell in on both axes: there np.gradient(f, h, axis=axis)
    of a complex f bit for bit (numpy, too, multiplies by 1/(2h))."""
    if axis == 0:
        return (f[2:, 1:-1] - f[:-2, 1:-1]) * (1.0 / (2.0 * h))
    return (f[1:-1, 2:] - f[1:-1, :-2]) * (1.0 / (2.0 * h))


def gaussian_bump_spinor(r0: float, z0: float, width: float
                         ) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Product-Gaussian test spinor centered at (r0, z0). Raises
    DomainError unless r0, z0 and width pass the real gate, width > 0."""
    _require_real(r0, "r0")
    _require_real(z0, "z0")
    _require_real(width, "width", positive=True)
    # the four component amplitudes, all nonzero
    amplitudes = np.array([1.0, 0.6 - 0.3j, -0.4j, 0.25], dtype=complex)
    amplitudes = amplitudes[:, None, None]

    def spinor(r: np.ndarray, z: np.ndarray) -> np.ndarray:
        bump = np.exp(-((r - r0) ** 2 + (z - z0) ** 2) / (2.0 * width ** 2))
        return amplitudes * bump[None, :, :]

    return spinor


# The probe composes its operators on blocks of at most _STRIP core rows
# (all core columns), each with _HALO more cells on every side, so that a
# block's arrays stay small enough for the cache. A core value composes at
# most two interior central differences, each a cell shorter at each end
# (the composed and the second derivatives): _HALO is that depth, and the
# windows shrink onto the core. _HALO must not pass _EDGE_TRIM.
_HALO = 2
_STRIP = 32


def _commutator_block(psi, hr: float, hz: float, mu, mu_p, inv, inv_p,
                      flat_helicity: bool) -> float:
    """max |(H Sigma - Sigma H) psi| over a block less _HALO cells on each
    side, with psi's components and the coefficients given on the block
    (mu, mu' as columns, 1/stretch and its z-derivative as rows). Each
    derivative (_central) moves its operand's window a cell in, and each
    term's operands are sliced to its window, down to the core. Each term
    is formed one spinor component at a time, and its sums and products
    run in the order of the full-spinor expressions for H Sigma psi and
    the expansion, so the value has their bits."""
    psi_r = [_central(f, hr, 0) for f in psi]
    psi_z = [_central(f, hz, 1) for f in psi]
    mu_psi = [mu[1:-1] * f[1:-1, 1:-1] for f in psi]
    sigma = []  # Sigma psi
    for a in range(4):
        s = _term(_G23, a, psi_r) + _term(_G31, a, mu_psi, 1j)
        if not flat_helicity:
            s *= inv[:, 1:-1]
        s += _term(_G12, a, psi_z)
        sigma.append(s)
    # from here on every array is on the core
    mu, mu_p, inv, inv_p = mu[2:-2], mu_p[2:-2], inv[:, 2:-2], inv_p[:, 2:-2]
    mu2 = mu * mu
    inv2 = inv * inv
    sigma_r = [_central(f, hr, 0) for f in sigma]
    sigma_z = [_central(f, hz, 1) for f in sigma]
    mu_sigma = [mu * f[1:-1, 1:-1] for f in sigma]
    psi_rr = [_central(f, hr, 0) for f in psi_r]
    psi_zz = [_central(f, hz, 1) for f in psi_z]
    if flat_helicity:
        psi_rz = [_central(f, hz, 1) for f in psi_r]
        mu_psi_z = [mu * f[1:-1, 1:-1] for f in psi_z]
    psi = [f[2:-2, 2:-2] for f in psi]
    psi_r = [f[1:-1, 1:-1] for f in psi_r]
    mu_psi = [f[1:-1, 1:-1] for f in mu_psi]
    worst = []
    for a in range(4):
        comm = _term(_G1, a, sigma_r, 1j) - _term(_G2, a, mu_sigma)
        comm *= inv
        comm += _term(_G3, a, sigma_z, 1j)  # H Sigma psi
        # Sigma H expanded: the radial-radial block collapses to
        # i G psi_rr - mu' g3 psi - i mu^2 G psi (G = g1 g2 g3), the
        # z-derivative of 1/stretch contributes inv' (i g2 psi_r
        # + mu g1 psi), and the mixed terms cancel (curved case) or
        # survive with weight (inv - 1) (flat case).
        block_rr = _term(_G123, a, psi_rr, 1j) - _term(_G3, a, psi, mu_p)
        block_rr -= _term(_G123, a, psi, 1j * mu2)
        expanded = _term(_G2, a, psi_r, 1j) + _term(_G1, a, mu_psi)
        expanded *= inv_p
        expanded += _term(_G123, a, psi_zz, 1j)
        if flat_helicity:
            block_rr *= inv
            expanded += block_rr
            mixed = _term(_G2, a, psi_rz, 1j) + _term(_G1, a, mu_psi_z)
            mixed *= inv - 1.0
            expanded += mixed
        else:
            block_rr *= inv2
            expanded += block_rr
        comm -= expanded
        worst.append(np.max(np.abs(comm)))
    return float(np.max(worst))


def _core_trim(points: int, factor: int) -> int:
    """Cells the probe trims from each end of an axis of the grid nested
    `factor` times finer (Grid1D.scaled) than a coarsest axis of `points`
    nodes: the coarsest axis's trim, a twentieth of its cells but at least
    _EDGE_TRIM, times `factor`. So every level compares one window on any
    grid (mu' grows like 1/r^2 toward r_lo)."""
    return factor * max(_EDGE_TRIM, round((points - 1) / 20))


def _commutator_sup(rec, B: float, m: float, test_spinor, grid: Grid2D,
                    factor: int, flat_helicity: bool) -> float:
    """commutator_residual's residual on the one grid grid.scaled(factor)."""
    g = grid.scaled(factor)
    rs, zs = g.r.nodes(), g.z.nodes()
    R, Z = np.meshgrid(rs, zs, indexing="ij")
    psi = np.asarray(test_spinor(R, Z), dtype=complex)
    if psi.shape != (4,) + R.shape:
        raise DomainError("test spinor must return shape (4, nr, nz)")
    mu = rec.mu(rs, m, B)[:, None]
    mu_p = rec.mu_prime(rs, m, B)[:, None]
    stretch = rec.stretch(zs)
    inv = (1.0 / stretch)[None, :]
    # d(1/stretch)/dz
    inv_p = (-rec.stretch_prime(zs) / stretch ** 2)[None, :]
    tr = _core_trim(grid.r.points, factor)
    tz = _core_trim(grid.z.points, factor)
    cols = slice(tz - _HALO, g.z.points - tz + _HALO)
    worst = []
    for lo in range(tr, g.r.points - tr, _STRIP):
        rows = slice(lo - _HALO, min(lo + _STRIP, g.r.points - tr) + _HALO)
        worst.append(_commutator_block(
            psi[:, rows, cols], g.r.spacing, g.z.spacing, mu[rows], mu_p[rows],
            inv[:, cols], inv_p[:, cols], flat_helicity))
    scale = float(np.max(np.abs(psi))) or 1.0
    return float(np.max(worst)) / scale


def commutator_residual(geometry: Geometry, B: float,
                        test_spinor: Callable[[np.ndarray, np.ndarray], np.ndarray],
                        grid2d: Grid2D, *, two_m: int = 1,
                        flat_helicity: bool = False) -> ResidualReport:
    """Grid sup-norm of (H Sigma - Sigma H) psi.

    H = stretch^-1 (i g1 d_r - g2 mu) + i g3 d_z and
    Sigma = stretch^-1 (g23 d_r + i g31 mu) + g12 d_z with
    stretch = cosh z (pseudosphere) or cos z (sphere); mu, mu' and the
    stretch come from geometry.record.

    H Sigma psi is evaluated by composing the finite-difference
    operators; Sigma H psi is evaluated from its hand-expanded
    second-order form, whose coefficients carry the analytic
    derivatives mu'(r) and (1/stretch)'(z) produced by the product
    rule. The two agree iff the expansion (i.e. the cancellation
    making [H, Sigma] = 0) is correct, with the difference shrinking
    at the O(h^2) stencil order. Composing both sides numerically
    would prove nothing: the compositions cancel identically (the
    gamma factors are signed permutations and the commutation is a
    structural operator identity, independent of mu and stretch).

    The derivatives are interior central differences at each grid's
    uniform spacing, on windows that shrink a cell per derivative onto
    the core; psi's first derivatives serve Sigma psi and the expansion.
    The sup is taken over the core left by trimming a twentieth of each
    axis's cells on grid2d (at least three), times the level's
    refinement factor, from each end, relative to the sup of psi over
    the grid: 4, 8 and 16 cells of an 80-point axis, 3, 6 and 12 of a
    40-point one, the same window at every level.

    The probe works one spinor component at a time, on blocks of the
    core with a two-cell halo (_commutator_block). Each gamma product
    acts through its table: component a of g psi is phase_a
    psi[row_a], and the unit phase folds into the term's coefficient.
    Every product so formed has a factor with a zero part, so it rounds
    as the full-spinor product with g does, and the residual has the
    bits of the full-spinor, full-grid evaluation.

    With flat_helicity=True, Sigma drops the stretch factor (the
    flat-space operator); the expansion is adjusted consistently, so
    the residual then converges to the true nonzero commutator instead
    of 0.

    The reported convergence_order averages the two log2 ratios over
    three nested grids (spacing h, h/2, h/4; `Grid2D.scaled`); max_abs
    comes from the finest one. two_m must be an odd integer.
    """
    rec = geometry.record
    rec._reflect(two_m, B, Component.R1)
    r, z = grid2d.r, grid2d.z
    if (r.lo < _SINGULAR_INSET or r.hi > rec.r_max - _SINGULAR_INSET
            or max(-z.lo, z.hi) > rec.z_max - _SINGULAR_INSET):
        raise SupportTooCloseToSingularity(
            "grid touches a coordinate singularity")
    residuals = [_commutator_sup(rec, B, two_m / 2.0, test_spinor, grid2d,
                                 2 ** k, flat_helicity)
                 for k in range(3)]
    orders = [_order_from(a, b) for a, b in zip(residuals, residuals[1:])]
    return ResidualReport(residuals[-1], sum(orders) / len(orders))


# ---------------------------------------------------------------------------
# Connection-formula check
# ---------------------------------------------------------------------------


def axial_connection_check(p: float, lam: float) -> ResidualReport:
    """Integrate the hyperbolic axial equation from y = 0.1 and compare
    against the two-term recombination around y = 1 predicted by the
    connection coefficients, on 16 nodes of y in [0.90, 0.95]. With
    a, b, c = 1 + i lam, 1 - i lam, ip + 3/2 of the record's Z1 form,
    c - a - b = ip - 1/2 is never an integer for real p, so the
    connection is non-degenerate on the physical line.

    Z = y^((1+ip)/2) (1-y)^((1-ip)/2) F(a, b, c; y) solves, on
    z = atanh(2y - 1), where the equation is smooth on the whole line,
    Z'' + tanh z Z' + (p^2 + i p tanh z - lam^2 / cosh^2 z) Z = 0.
    Classical fourth-order Runge-Kutta steps carry Z from y = 0.1 to each
    grid node; a step of at most 2e-3 / max(1, |p|, lam) in z keeps the
    integration error below ~1e-12 of the solution.
    """
    if p == 0.0:
        raise DomainError("p must be nonzero")
    if lam == 0.0:
        raise DegenerateConnection(
            "lambda = 0 makes the upper parameters coincide (a = b)")
    sol = Geometry.H3.record.axial_solution(p, lam, Component.Z1)
    params = sol.params
    coeff = kummer_connection(params)

    def rhs(z):  # (f, df) -> (Z', Z'') at z, its coefficients taken once
        t = math.tanh(z)
        q = p * p + 1j * p * t - lam * lam / math.cosh(z) ** 2
        return lambda f, df: (df, -(t * df + q * f))

    z = math.atanh(2 * 0.1 - 1)
    g0, g1, _ = sol.evaluate_with_derivs(np.array([z]))
    f, df = complex(g0[0]), complex(g1[0])
    h_max = 2e-3 / max(1.0, abs(p), abs(lam))
    ys = Grid1D(0.90, 0.95, 16).nodes()
    z_num = []
    at_z = rhs(z)
    for target in np.arctanh(2 * ys - 1):
        steps = max(1, math.ceil((target - z) / h_max))
        h = (target - z) / steps
        for _ in range(steps):
            # k2 and k3 share z + h/2, and z + h is the next step's z
            at_mid, at_end = rhs(z + h / 2), rhs(z + h)
            k1 = at_z(f, df)
            k2 = at_mid(f + h / 2 * k1[0], df + h / 2 * k1[1])
            k3 = at_mid(f + h / 2 * k2[0], df + h / 2 * k2[1])
            k4 = at_end(f + h * k3[0], df + h * k3[1])
            f += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            df += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            z, at_z = z + h, at_end
        z_num.append(f)
    pref = ys ** complex(sol.exp_a) * (1.0 - ys) ** complex(sol.exp_c)
    z_pred = pref * (coeff.to_u2 * u2_value(params, ys)
                     + coeff.to_u6 * u6_value(params, ys))
    return ResidualReport(_sup_over_scale(np.array(z_num) - z_pred, z_pred))
