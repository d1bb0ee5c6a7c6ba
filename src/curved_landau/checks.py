"""Named verification suites driven by the command-line ``verify``,
reached as ``curved_landau.checks`` (the package root does not import
them). The radial, axial, commutator and pairs suites meter with
``curved_landau.oracle`` and import it when they run; hyp and
flat-limit do not load it.

Every check is normalized to "value <= threshold passes". A tolerance
override (finite and > 0) replaces the threshold of every check except
those named in FIXED_THRESHOLDS. Suites:

hyp
    Randomized special-function identities (Euler transformation, both
    contiguous relations, two-term recombination around y = 1).
radial
    The first-order radial pair's eigensolver against the closed-form
    bound-state spectra on both spaces.
axial
    Constructed axial solutions substituted into their second-order
    equations; the spherical quantization rule checked exactly; the
    hyperbolic connection coefficients against an integrated solution.
commutator
    Convergence order of the helicity-commutator residual, plus the
    flat-operator fault that must fail to converge.
pairs
    First-order systems with the closed-form relative factors, one
    admissible state per variant pair, plus a scaled-factor fault.
flat-limit
    |lambda0^2 - 2 b n| = n^2 / rho^2 verified as an identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from . import hyp2f1 as hyp
from . import lobachevsky as lob
from . import spherical as sph
from ._numpy import np
from .model import Component, DomainError, Geometry, RadialPair, _require_real

__all__ = ["CheckResult", "FIXED_THRESHOLDS", "SUITE_NAMES", "run_suites"]

_RNG_SEED = 20250301
_DRAWS = 100

# the checks whose thresholds a tolerance override leaves alone: each
# asserts an exact identity or a convergence order, not an accuracy
FIXED_THRESHOLDS = ("axial/s3-quantization-exact", "axial/h3-fd-order",
                    "pairs/h3-scaled-factor-rejected",
                    "commutator/flat-fault-detected")
_S3_EXACT, _H3_FD_ORDER, _SCALED_FACTOR, _FLAT_FAULT = FIXED_THRESHOLDS


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""


def _result(name: str, value: float, threshold: float,
            detail: str = "") -> CheckResult:
    return CheckResult(name, value <= threshold, float(value),
                       float(threshold), detail)


def _random_params(rng: np.random.Generator) -> hyp.Hyp2F1Params:
    """Parameter draw kept >= 0.1 away from the non-positive integers
    that pole the series coefficients or gamma factors."""
    while True:
        a, b, c = (complex(rng.uniform(-5, 5), rng.uniform(-2, 2))
                   for _ in range(3))
        ok = True
        for v in (a, b, c, c - a, c - b, c - a - b, a - b):
            if abs(v - round(v.real)) < 0.1 and abs(v.imag) < 0.1:
                ok = False
        if ok:
            return hyp.Hyp2F1Params(a, b, c)


def _random_y(rng: np.random.Generator, lo=0.2, hi=0.8,
              lens: bool = False) -> complex:
    """Draw y in the annulus lo <= |y| <= hi; with lens=True also keep
    |1 - y| <= hi so series around both 0 and 1 converge comfortably."""
    while True:
        radius = rng.uniform(lo, hi)
        angle = rng.uniform(0, 2 * math.pi)
        y = complex(radius * math.cos(angle), radius * math.sin(angle))
        if not lens or abs(1 - y) <= hi:
            return y


def _contiguous_lhs(params: hyp.Hyp2F1Params, y: complex) -> complex:
    """(c - a - b) F + (1 - y) F': the c-raising contiguous identity's lhs."""
    f, fp, _ = hyp.series_with_derivatives(params, y)
    return (params.c - params.a - params.b) * f + (1 - y) * fp


def _suite_hyp() -> List[CheckResult]:
    rng = np.random.default_rng(_RNG_SEED)
    euler = contig_lo = contig_hi = recon = 0.0
    for _ in range(_DRAWS):
        params = _random_params(rng)
        a, b, c = params.a, params.b, params.c
        y = _random_y(rng)
        f = hyp.eval_2f1(params, y)
        scale = max(1.0, abs(f))
        transformed = ((1 - y) ** (c - a - b)
                       * hyp.eval_2f1(hyp.Hyp2F1Params(c - a, c - b, c), y))
        euler = max(euler, abs(f - transformed) / scale)
        lhs = _contiguous_lhs(params, y)
        rhs = ((a - c) * (b - c) / c) * hyp.eval_2f1(params.shifted(dc=1), y)
        contig_hi = max(contig_hi, abs(lhs - rhs) / max(1.0, abs(rhs)))
        lhs = _contiguous_lhs(params.shifted(dc=-1), y)
        rhs = ((a - c + 1) * (b - c + 1) / (c - 1)) * f
        contig_lo = max(contig_lo, abs(lhs - rhs) / max(1.0, abs(rhs)))
        y_lens = _random_y(rng, lens=True)
        f_lens = hyp.eval_2f1(params, y_lens)
        coeff = hyp.kummer_connection(params)
        t2 = coeff.to_u2 * hyp.u2_value(params, y_lens)
        t6 = coeff.to_u6 * hyp.u6_value(params, y_lens)
        recon = max(recon, abs(f_lens - (t2 + t6))
                    / max(1.0, abs(f_lens), abs(t2), abs(t6)))
    return [
        _result("hyp/euler-transformation", euler, 1e-9, f"{_DRAWS} draws"),
        _result("hyp/contiguous-raise", contig_hi, 1e-9, f"{_DRAWS} draws"),
        _result("hyp/contiguous-lower", contig_lo, 1e-9, f"{_DRAWS} draws"),
        _result("hyp/two-term-recombination", recon, 1e-9,
                f"{_DRAWS} draws, 0.2 <= |y| <= 0.8 and |1 - y| <= 0.8"),
    ]


def _worst_match(found: Sequence[float], targets: Sequence[float]) -> float:
    return max(abs(v - t) / max(1.0, abs(t)) for v, t in zip(found, targets))


def _suite_radial() -> List[CheckResult]:
    from . import oracle
    grid_h3 = oracle.Grid1D(0.0, 12.0, 4000)
    grid_s3 = oracle.Grid1D(0.0, math.pi, 4000)

    def above_one(ev):  # drops the H3 zero mode, as a list
        return [v for v in ev if v > 1.0][:4]
    # (name, eigensolver, space, two_m, B, grid, levels shown, first level
    # compared); m = +1/2 on S3 skips its zero mode
    cases = [
        ("radial/h3-B5-m+1/2", oracle.radial_eigenvalues_h3, Geometry.H3, 1, 5.0,
         grid_h3, above_one, 0),
        ("radial/h3-B5-m-1/2", oracle.radial_eigenvalues_h3, Geometry.H3, -1, 5.0,
         grid_h3, above_one, 0),
        ("radial/s3-B1-m+1/2", oracle.radial_eigenvalues_s3, Geometry.S3, 1, 1.0,
         grid_s3, lambda ev: ev[:4], 1),
        ("radial/s3-B1-m-1/2", oracle.radial_eigenvalues_s3, Geometry.S3, -1, 1.0,
         grid_s3, lambda ev: ev[:3], 0),
    ]
    out = []
    for name, solve, space, two_m, B, grid, shown, first in cases:
        levels = shown(solve(two_m, B, grid).eigenvalues)
        # the admissible closed-form levels n = 0..4, which skip the
        # lambda^2 = 0 modes as `shown` and `first` do
        entries = [space.record.quantize(two_m, B, n, Component.R1)
                   for n in range(5)]
        targets = [e.lambda_sq for e in entries if e.admissible]
        out.append(_result(name, _worst_match(levels[first:], targets),
                           0.005, f"eigenvalues {levels}"))
    return out


_LAM_S3 = math.sqrt(3.0)
# (record, check name, detail, grid half-width, (p, lam) states): each
# state's Z1 and Z2 forms substituted into their second-order equations
_AXIAL_CASES = (
    (sph.GEOMETRY, "axial/s3-polynomial-solutions", "lam=sqrt(3), n_z=0..2",
     1.0, tuple((sph.s3_axial_quantize(_LAM_S3, n_z), _LAM_S3)
                for n_z in range(3))),
    (lob.GEOMETRY, "axial/h3-series-solutions", "p=0.7, lam=1.3", 2.0, ((0.7, 1.3),)),
)


def _suite_axial() -> List[CheckResult]:
    from . import oracle
    out = []
    reports = {}
    for rec, name, detail, width, states in _AXIAL_CASES:
        grid = oracle.Grid1D(-width, width, 1500)
        reports[name] = [oracle.ode_residual(rec.axial_solution(p, lam, c), c,
                                             grid, p=p, lam=lam)
                         for p, lam in states for c in (Component.Z1, Component.Z2)]
        out.append(_result(name, max(r.max_abs for r in reports[name]),
                           1e-8, detail))
    # the S3 quantization rule against the algebra: Z1 stops at degree n_z
    degrees = [sph.GEOMETRY.axial_solution(sph.s3_axial_quantize(_LAM_S3, n_z), _LAM_S3,
                                           Component.Z1).params.degree for n_z in range(3)]
    exact_p = max(abs(degree - n_z) for n_z, degree in enumerate(degrees))
    orders = [abs(r.convergence_order - 2.0)
              for r in reports["axial/h3-series-solutions"]]
    # the connection coefficients that evaluate the forms at Re y > 0.9,
    # against an integration of the axial ODE that does not use them
    rep = oracle.axial_connection_check(0.7, 1.3)
    out.insert(1, _result(_S3_EXACT, exact_p, 1e-15, "p = lam + n_z + 1/2"))
    return out + [
        _result(_H3_FD_ORDER, max(orders), 0.3, "finite-difference pathway"),
        _result("axial/h3-connection-vs-ode", rep.max_abs, 1e-8,
                "p=0.7, lam=1.3, y in [0.9, 0.95]")]


def _suite_commutator() -> List[CheckResult]:
    from . import oracle
    spinor = oracle.gaussian_bump_spinor(2.0, 0.0, 0.5)
    grid = oracle.Grid2D(oracle.Grid1D(0.05, 4.0, 80),
                         oracle.Grid1D(-2.0, 2.0, 80))
    rep = oracle.commutator_residual(Geometry.H3, 5.0, spinor, grid, two_m=1)
    fault = oracle.commutator_residual(Geometry.H3, 5.0, spinor, grid,
                                       two_m=1, flat_helicity=True)
    spinor_s = oracle.gaussian_bump_spinor(1.5, 0.0, 0.3)
    grid_s = oracle.Grid2D(oracle.Grid1D(0.05, math.pi - 0.05, 80),
                           oracle.Grid1D(-1.2, 1.2, 80))
    rep_s = oracle.commutator_residual(Geometry.S3, 1.0, spinor_s, grid_s,
                                       two_m=1)
    return [
        _result("commutator/h3-order", abs(rep.convergence_order - 2.0),
                0.3, f"order {rep.convergence_order:.3f}"),
        _result("commutator/s3-order", abs(rep_s.convergence_order - 2.0),
                0.3, f"order {rep_s.convergence_order:.3f}"),
        _result(_FLAT_FAULT, fault.convergence_order,
                0.5, f"flat-operator order {fault.convergence_order:.4f} "
                f"(residual {fault.max_abs:.3g} must not converge)"),
    ]


# (record, two_m, B, n, pair): one admissible level per radial pair,
# with B written as the check's detail prints it
_RADIAL_PAIR_CASES = (
    (lob.GEOMETRY, 1, 5, 2, RadialPair.V1_V4P),
    (lob.GEOMETRY, -1, 5, 1, RadialPair.V2_V3P),
    (sph.GEOMETRY, -1, 1.0, 0, RadialPair.V1_V3P),
    (sph.GEOMETRY, 1, 1.0, 1, RadialPair.V2_V4P),
    (sph.GEOMETRY, 7, 1.0, 0, RadialPair.V3_V1P),
)

# (record, p, lam, grid half-width, detail): one axial pair per space
_AXIAL_PAIR_CASES = (
    (lob.GEOMETRY, 0.7, 1.3, 2.0, "p=0.7, lam=1.3"),
    (sph.GEOMETRY, sph.s3_axial_quantize(_LAM_S3, 1), _LAM_S3, 1.0, "lam=sqrt(3), n_z=1"),
)


def _suite_pairs() -> List[CheckResult]:
    from . import oracle
    grids = {Geometry.H3: oracle.Grid1D(0.3, 8.0, 1200),
             Geometry.S3: oracle.Grid1D(0.2, math.pi - 0.2, 1200)}
    radial = []
    for rec, two_m, B, n, pair in _RADIAL_PAIR_CASES:
        space = rec.radial_variable.geometry
        lambda_sq = rec.quantize(two_m, B, n, Component.R1).lambda_sq
        forms = rec.radial_pair(two_m, B, lambda_sq, pair)
        kw = dict(lam=math.sqrt(lambda_sq), two_m=two_m, B=B)
        rep = oracle.first_order_system_residual(forms, grids[space], **kw)
        spec = pair.value
        radial.append(_result(
            f"pairs/{space.value}-radial-{spec.r1.value}-{spec.r2.value}",
            rep.max_abs, 1e-8, f"B={B}, m={two_m}/2, n={n}"))
        if len(radial) == 1:  # the scaled-factor fault rides on the first
            scaled = oracle.first_order_system_residual(
                (forms[0], forms[1], 2.0 * forms[2]), grids[space], **kw)
            radial.append(_result(_SCALED_FACTOR, rep.max_abs / scaled.max_abs, 0.01,
                                  f"x2 factor residual {scaled.max_abs:.3g}"))

    axial = []
    for rec, p, lam, width, detail in _AXIAL_PAIR_CASES:
        rep = oracle.first_order_system_residual(
            rec.axial_pair(p, lam), oracle.Grid1D(-width, width, 1200),
            lam=lam, p=p)
        axial.append(_result(f"pairs/{rec.axial_variable.geometry.value}-axial",
                             rep.max_abs, 1e-8, detail))
    return radial[:3] + axial + radial[3:]  # axial after the H3 radial pairs


def _suite_flat_limit() -> List[CheckResult]:
    worst = 0.0
    for n in (1, 2, 3):
        for rho in (10.0, 30.0, 100.0):
            lam_sq_physical, flat_target = lob.flat_limit(1.0, n, rho)
            gap = abs(lam_sq_physical - flat_target)
            worst = max(worst, abs(gap - n * n / rho ** 2))
    return [_result("flat-limit/quadratic-gap", worst, 1e-12,
                    "b=1, n in {1,2,3}, rho in {10,30,100}")]


_SUITES = {
    "hyp": _suite_hyp,
    "radial": _suite_radial,
    "axial": _suite_axial,
    "commutator": _suite_commutator,
    "pairs": _suite_pairs,
    "flat-limit": _suite_flat_limit,
}
SUITE_NAMES = tuple(_SUITES)


def run_suites(names: Sequence[str],
               tol: Optional[float] = None) -> List[CheckResult]:
    """Run the named suites ("all" expands to every suite) with an
    optional tolerance override, which must be finite and > 0 and
    replaces every threshold but those in FIXED_THRESHOLDS."""
    if tol is not None:
        _require_real(tol, "tol", positive=True)
    expanded: List[str] = []
    for name in names:
        if name == "all":
            expanded.extend(SUITE_NAMES)
        elif name in _SUITES:
            expanded.append(name)
        else:
            raise DomainError(f"unknown suite {name!r}; "
                              f"choose from {', '.join(SUITE_NAMES)} or all")
    results: List[CheckResult] = []
    for name in dict.fromkeys(expanded):
        results.extend(_SUITES[name]())
    if tol is None:
        return results
    return [r if r.name in FIXED_THRESHOLDS
            else _result(r.name, r.value, tol, r.detail) for r in results]
