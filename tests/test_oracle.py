"""Independent numerics: eigensolvers, residuals, commutator, connection."""

import math

import numpy as np
import pytest

from curved_landau import oracle
from curved_landau.hyp2f1 import DegenerateConnection
from curved_landau.lobachevsky import (
    GEOMETRY as H3_GEOMETRY,
    h3_quantize,
    h3_radial_solution,
)
from curved_landau.model import (
    Component,
    DomainError,
    EvaluationDomain,
    Geometry,
    InadmissibleVariant,
    NonTerminating,
    RadialPair,
    Variant,
    ZeroLambda,
)
from curved_landau.oracle import (
    EigenReport,
    Grid1D,
    Grid2D,
    ResidualReport,
    SupportTooCloseToSingularity,
    TruncationTooSmall,
    axial_connection_check,
    commutator_residual,
    first_order_system_residual,
    gaussian_bump_spinor,
    ode_residual,
    radial_eigenvalues_h3,
    radial_eigenvalues_s3,
)
from curved_landau.spherical import (
    GEOMETRY as S3_GEOMETRY,
    s3_axial_quantize,
    s3_quantize,
    s3_radial_solution,
)


# the commutator suite's grids
_H3_GRID = Grid2D(Grid1D(0.05, 4.0, 80), Grid1D(-2.0, 2.0, 80))
_S3_GRID = Grid2D(Grid1D(0.05, math.pi - 0.05, 80), Grid1D(-1.2, 1.2, 80))


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------


def test_grid_guards():
    # bad ends and point counts are refused when the grid is built
    for make in (lambda: Grid1D(1.0, 1.0, 100),
                 lambda: Grid1D(0.0, 1.0, 8),
                 lambda: Grid2D(Grid1D(0.0, 1.0, 100), Grid1D(0.0, 1.0, 8)),
                 lambda: Grid1D(0.0, math.inf, 16),
                 lambda: Grid1D(-math.inf, 0.0, 16),
                 lambda: Grid1D(0.0, math.nan, 16),
                 lambda: Grid1D(0.0, 1.0, 16.5),
                 lambda: Grid1D(0.0, 1.0, 16.0),
                 lambda: Grid2D(Grid1D(0.0, 1.0, 40.5),
                                Grid1D(0.0, 1.0, 40)),
                 lambda: Grid2D(Grid1D(0.0, 1.0, 40),
                                Grid1D(-math.inf, 1.0, 40)),
                 lambda: Grid2D((0.0, 1.0, 40), Grid1D(0.0, 1.0, 40))):
        with pytest.raises(DomainError):
            make()
    grid = Grid1D(0.0, 2.0, 101)
    assert grid.spacing == 0.02
    fine = grid.scaled(2)
    assert fine.points == 201 and fine.spacing == 0.01
    coarse = Grid2D(Grid1D(0.0, 1.0, 20), Grid1D(-1.0, 1.0, 30))
    g2 = coarse.scaled(2)
    assert (g2.r.points, g2.z.points) == (39, 59)
    # Grid1D.scaled, the one nesting rule: the nodes nest on both axes
    for factor in (2, 3, 4):
        scaled = coarse.scaled(factor)
        for fine, axis in ((scaled.r, coarse.r), (scaled.z, coarse.z)):
            assert np.allclose(fine.nodes()[::factor], axis.nodes())


def test_report_guards():
    with pytest.raises(DomainError):
        ResidualReport(-1.0)
    with pytest.raises(DomainError):
        ResidualReport(float("nan"))
    with pytest.raises(DomainError):
        EigenReport((3.0, 1.0))


@pytest.mark.parametrize("build, name", [
    (lambda: ResidualReport(10 ** 400), "max_abs"),
    (lambda: ResidualReport(1.0, math.nan), "convergence_order"),
    (lambda: ResidualReport(1.0, 10 ** 400), "convergence_order"),
    (lambda: ResidualReport(1.0, -math.inf), "convergence_order"),
    (lambda: EigenReport((math.nan, 1.0)), "eigenvalues"),
    (lambda: EigenReport((1.0, math.nan)), "eigenvalues"),
], ids=["max_abs-1e400", "order-nan", "order-1e400", "order--inf",
        "eigen-nan-first", "eigen-nan-last"])
def test_a_report_holds_only_finite_numbers(build, name):
    # max_abs = 10**400 raised a bare OverflowError, a NaN or 10**400
    # order was stored, and (nan, 1.0) passed the ascending check
    with pytest.raises(DomainError, match=f"^{name}\\b"):
        build()


# ---------------------------------------------------------------------------
# Eigensolvers vs analytic ladders
# ---------------------------------------------------------------------------


def _assert_matches_ladder(found, analytic, rel=0.005):
    """Every computed eigenvalue sits on the analytic ladder and every
    ladder value below the window top is found exactly once."""
    found = list(found)
    assert len(found) == len(analytic), (found, analytic)
    for got, want in zip(found, sorted(analytic)):
        assert abs(got - want) <= rel * max(1.0, abs(want)), (got, want)


def test_h3_spectrum_positive_m():
    rep = radial_eigenvalues_h3(1, 5.0, Grid1D(0.0, 12.0, 4000))
    # ladder includes the f1 zero mode, which quantize marks inadmissible
    _assert_matches_ladder(rep.eigenvalues, [0.0, 9.0, 16.0, 21.0, 24.0])


def test_h3_spectrum_negative_m():
    rep = radial_eigenvalues_h3(-1, 5.0, Grid1D(0.0, 12.0, 4000))
    _assert_matches_ladder(rep.eigenvalues, [9.0, 16.0, 21.0, 24.0])


def test_h3_reflection_equivalence():
    # (m, B) -> (-m, -B) swaps f1 and f2, so the pair keeps its spectrum:
    # the zero mode once, then the ladder
    a = radial_eigenvalues_h3(-1, -5.0, Grid1D(0.0, 12.0, 3000))
    b = radial_eigenvalues_h3(1, 5.0, Grid1D(0.0, 12.0, 3000))
    assert len(a.eigenvalues) == len(b.eigenvalues)
    assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-9)
    assert abs(a.eigenvalues[0]) < 1e-6
    _assert_matches_ladder(a.eigenvalues, [0.0, 9.0, 16.0, 21.0, 24.0])


def test_h3_zero_field_has_no_bound_states():
    rep = radial_eigenvalues_h3(1, 0.0, Grid1D(0.0, 12.0, 2000))
    assert rep.eigenvalues == ()


def test_s3_spectrum_both_signs():
    grid = Grid1D(0.0, math.pi, 4000)
    rep = radial_eigenvalues_s3(1, 1.0, grid, max_count=4)
    _assert_matches_ladder(rep.eigenvalues, [0.0, 3.0, 8.0, 15.0])
    rep = radial_eigenvalues_s3(-1, 1.0, grid, max_count=4)
    _assert_matches_ladder(rep.eigenvalues, [3.0, 8.0, 15.0, 24.0])


def test_s3_reflection_equivalence():
    grid = Grid1D(0.0, math.pi, 2000)
    a = radial_eigenvalues_s3(-1, -1.0, grid, max_count=3)
    b = radial_eigenvalues_s3(1, 1.0, grid, max_count=3)
    assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-8)


def _nonzero_levels(geometry, two_m, B, hi, count=3):
    """The pair's first `count` levels past its zero mode, on 4,000
    points over (0, hi)."""
    solve = (radial_eigenvalues_h3 if geometry is Geometry.H3
             else lambda *a: radial_eigenvalues_s3(*a, max_count=count + 1))
    levels = solve(two_m, B, Grid1D(0.0, hi, 4000)).eigenvalues
    return [v for v in levels if v > 1e-3][:count]


def _quantized(geometry, two_m, B, component, count=3):
    entries = (geometry.record.quantize(two_m, B, n, component)
               for n in range(count + 2))
    return [e.lambda_sq for e in entries if e.admissible][:count]


@pytest.mark.parametrize("geometry, two_m, hi", [
    (Geometry.S3, 1, math.pi), (Geometry.S3, 41, math.pi),
    (Geometry.S3, 5, math.pi), (Geometry.H3, 41, 25.0)])
def test_pair_spectrum_at_large_indicial_exponents(geometry, two_m, hi):
    # B = 10: the Liouville-weighted solver returned 54.72 x3, -114.87 x3,
    # (-1.59, 23.77, 42.79) and (-0.85, 20.02, 33.93) here
    found = _nonzero_levels(geometry, two_m, 10.0, hi)
    want = _quantized(geometry, two_m, 10.0, Component.R1)
    assert len(found) == 3
    for got, exact in zip(found, want):
        assert abs(got - exact) <= 1e-6 * exact, (found, want)


# S3's strip columns, 2B not an integer and |m - 2B| < 1/2, at m > 2B
# and m < 2B on both signs of B, and the tie m = 2B (2B a half-integer)
@pytest.mark.parametrize("B, two_m", [(3.7, 15), (-1.3, -5), (1.3, 5),
                                      (-3.7, -15), (1.25, 5)])
@pytest.mark.parametrize("component", [Component.R1, Component.R2])
def test_pair_spectrum_in_the_s3_strip_is_both_components(B, two_m, component):
    """Both local solutions are square-integrable at r = pi here, and
    quantize reads one pair for both components: the pair's solver
    must find that pair's levels, whichever component asks. R1 read
    another pair's at m < 2B and R2 at m > 2B."""
    found = _nonzero_levels(Geometry.S3, two_m, B, math.pi)
    want = _quantized(Geometry.S3, two_m, B, component)
    assert np.allclose(found, want, rtol=1e-4, atol=0.0), (found, want)


def test_tie_column_reads_the_end_rules_levels():
    """At m = 2B both components quantize the pair (3, 1'), the levels
    the solver's end rule finds (1.5, 6, 12.5 at B = 1.25), though 1'
    has A = 0 there and does not build."""
    s3 = Geometry.S3.record
    for component in (Component.R1, Component.R2):
        assert _quantized(Geometry.S3, 5, 1.25, component) == [1.5, 6.0, 12.5]
    assert s3.quantize(5, 1.25, 0, Component.R2).variant is Variant.V1P
    with pytest.raises(InadmissibleVariant, match="variant 1p: exponents A = 0.0"):
        s3.radial_solution(5, 1.25, 1.5, Component.R2, Variant.V1P)


@pytest.mark.parametrize("two_m", [0, 2, 0.5, 1.0,
                                   pytest.param(10 ** 400 + 1, id="10**400+1")])
def test_eigensolvers_take_an_odd_two_m(two_m):
    # an even or non-integer two_m names no state, as in quantize
    with pytest.raises(DomainError, match="two_m"):
        radial_eigenvalues_h3(two_m, 5.0, Grid1D(0.0, 12.0, 400))
    with pytest.raises(DomainError, match="two_m"):
        radial_eigenvalues_s3(two_m, 1.0, Grid1D(0.0, math.pi, 400))


@pytest.mark.parametrize("two_m", [0, 2, 1.5, 1.0,
                                   pytest.param(10 ** 400 + 1, id="10**400+1")])
def test_meters_take_an_odd_two_m(two_m):
    # a radial meter or the probe at another m meters no state; an odd
    # two_m past the float range raised OverflowError
    entry = h3_quantize(1, 5.0, 2, Component.R1)
    lam_sq = entry.lambda_sq
    sol = h3_radial_solution(1, 5.0, lam_sq, Component.R1, entry.variant)
    grid = Grid1D(0.3, 8.0, 100)
    with pytest.raises(DomainError, match="two_m"):
        ode_residual(sol, Component.R1, grid, two_m=two_m, B=5.0,
                     lambda_sq=lam_sq)
    pair = H3_GEOMETRY.radial_pair(1, 5.0, lam_sq, RadialPair.V1_V4P)
    with pytest.raises(DomainError, match="two_m"):
        first_order_system_residual(pair, grid, lam=math.sqrt(lam_sq),
                                    two_m=two_m, B=5.0)
    with pytest.raises(DomainError, match="two_m"):
        commutator_residual(Geometry.H3, 5.0, gaussian_bump_spinor(2.0, 0.0, 0.5),
                            Grid2D(Grid1D(0.05, 4.0, 16), Grid1D(-2.0, 2.0, 16)),
                            two_m=two_m)


@pytest.mark.parametrize("lo, hi", [(-0.1, 2.0), (0.0, 3.2)])
def test_eigensolver_grid_stays_in_the_space(lo, hi):
    with pytest.raises(DomainError, match=r"^grid must lie within \[0, 3.14159\]"):
        radial_eigenvalues_s3(1, 1.0, Grid1D(lo, hi, 400))
    if lo < 0.0:
        with pytest.raises(DomainError, match=r"^grid must lie within \[0, inf\]"):
            radial_eigenvalues_h3(1, 5.0, Grid1D(lo, 12.0, 400))


@pytest.mark.parametrize("max_count", [1.5, 2.0])
def test_eigensolver_takes_an_integer_max_count(max_count):
    # a float count reached scipy, which raised its bare ValueError
    with pytest.raises(DomainError, match="max_count must be an integer"):
        radial_eigenvalues_s3(1, 1.0, Grid1D(0.0, math.pi, 400),
                              max_count=max_count)


def _meter_calls():
    """Each state argument of both meters, as (argument, call taking its
    value), by case name; the other arguments hold an H3 state."""
    entry = h3_quantize(1, 5.0, 2, Component.R1)
    lam_sq = entry.lambda_sq
    radial = h3_radial_solution(1, 5.0, lam_sq, Component.R1, entry.variant)
    rgrid, zgrid = Grid1D(0.3, 8.0, 100), Grid1D(-1.0, 1.0, 40)
    axial = H3_GEOMETRY.axial_solution(0.7, 1.3, Component.Z1)
    rpair = H3_GEOMETRY.radial_pair(1, 5.0, lam_sq, RadialPair.V1_V4P)
    zpair = H3_GEOMETRY.axial_pair(0.7, 1.3)
    lam = math.sqrt(lam_sq)
    return {
        "ode-p": ("p", lambda v: ode_residual(axial, Component.Z1, zgrid,
                                              p=v, lam=1.3)),
        "ode-lam": ("lam", lambda v: ode_residual(axial, Component.Z1, zgrid,
                                                  p=0.7, lam=v)),
        "ode-B": ("B", lambda v: ode_residual(radial, Component.R1, rgrid,
                                              two_m=1, B=v, lambda_sq=lam_sq)),
        "ode-lambda_sq": ("lambda_sq", lambda v: ode_residual(
            radial, Component.R1, rgrid, two_m=1, B=5.0, lambda_sq=v)),
        "axial-system-lam": ("lam", lambda v: first_order_system_residual(
            zpair, zgrid, lam=v, p=0.7)),
        "axial-system-p": ("p", lambda v: first_order_system_residual(
            zpair, zgrid, lam=1.3, p=v)),
        "radial-system-lam": ("lam", lambda v: first_order_system_residual(
            rpair, rgrid, lam=v, two_m=1, B=5.0)),
        "radial-system-B": ("B", lambda v: first_order_system_residual(
            rpair, rgrid, lam=lam, two_m=1, B=v)),
    }


@pytest.mark.parametrize("case", ["ode-p", "ode-lam", "ode-B", "ode-lambda_sq",
                                  "axial-system-lam", "axial-system-p",
                                  "radial-system-lam", "radial-system-B"])
def test_meters_refuse_a_non_finite_state(case):
    # a NaN or infinite state ran every point and was refused by the
    # report ("max_abs must be finite"), by mu, or after RuntimeWarnings
    name, call = _meter_calls()[case]
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            call(bad)


def test_h3_truncation_guard():
    # weakly bound ground state (B = 1/2): the e^{-B r} tail still
    # carries visible mass at r = 12
    with pytest.raises(TruncationTooSmall):
        radial_eigenvalues_h3(1, 0.5, Grid1D(0.0, 12.0, 2000))


def test_h3_asymptote_precondition():
    # window too short for mu^2 to settle at B^2
    with pytest.raises(DomainError):
        radial_eigenvalues_h3(1, 1.2, Grid1D(0.0, 4.0, 2000))


def test_s3_truncated_domain_guard():
    with pytest.raises(TruncationTooSmall):
        radial_eigenvalues_s3(1, 1.0, Grid1D(0.0, 2.0, 2000))


# ---------------------------------------------------------------------------
# ODE residuals
# ---------------------------------------------------------------------------


def test_h3_radial_residual_exact_and_faulted():
    entry = h3_quantize(1, 5.0, 2, Component.R1)
    sol = h3_radial_solution(1, 5.0, entry.lambda_sq, Component.R1,
                             entry.variant)
    grid = Grid1D(0.3, 8.0, 1200)
    rep = ode_residual(sol, Component.R1, grid,
                       two_m=1, B=5.0, lambda_sq=entry.lambda_sq)
    assert rep.max_abs < 1e-10
    assert abs(rep.convergence_order - 2.0) < 0.3
    fault = ode_residual(sol, Component.R1, grid,
                         two_m=1, B=5.0, lambda_sq=entry.lambda_sq + 0.1)
    assert fault.max_abs > 1e-3
    assert fault.convergence_order < 0.5


def test_s3_radial_residual_exact():
    entry = s3_quantize(-1, 1.0, 1, Component.R1)
    sol = s3_radial_solution(-1, 1.0, entry.lambda_sq, Component.R1,
                             entry.variant)
    rep = ode_residual(sol, Component.R1,
                       Grid1D(0.2, math.pi - 0.2, 1200),
                       two_m=-1, B=1.0, lambda_sq=entry.lambda_sq)
    assert rep.max_abs < 1e-10
    assert abs(rep.convergence_order - 2.0) < 0.3


@pytest.mark.parametrize("geometry, grid", [
    (Geometry.H3, Grid1D(0.3, 8.0, 600)),
    (Geometry.S3, Grid1D(0.2, math.pi - 0.2, 600))], ids=["H3", "S3"])
def test_negative_field_radial_forms_solve_their_equation(geometry, grid):
    # quantize reflects (m, B) -> (-m, -B) with R1 <-> R2 and names the
    # reflected variant; radial_solution must build that same state,
    # which then solves the equation at the caller's (two_m, B, component)
    rec = geometry.record
    count = 0
    for B in (-0.7, -2.5, -5.0):
        for two_m in range(-9, 10, 2):
            for n in range(5):
                for component in (Component.R1, Component.R2):
                    entry = rec.quantize(two_m, B, n, component)
                    if not entry.admissible:
                        continue
                    sol = rec.radial_solution(two_m, B, entry.lambda_sq,
                                              component, entry.variant)
                    rep = ode_residual(sol, component, grid, two_m=two_m, B=B,
                                       lambda_sq=entry.lambda_sq)
                    assert rep.max_abs <= 1e-8, (two_m, B, n, component)
                    count += 1
    assert count == {Geometry.H3: 86, Geometry.S3: 289}[geometry]


def test_axial_residuals_exact():
    p, lam = 0.7, 1.3
    z2 = H3_GEOMETRY.axial_solution(p, lam, Component.Z2)
    rep = ode_residual(z2, Component.Z2, Grid1D(-2.0, 2.0, 1000),
                       p=p, lam=lam)
    assert rep.max_abs < 1e-8
    lam = math.sqrt(3.0)
    p = s3_axial_quantize(lam, 2)
    z1 = S3_GEOMETRY.axial_solution(p, lam, Component.Z1)
    rep = ode_residual(z1, Component.Z1, Grid1D(-1.3, 1.3, 1000),
                       p=p, lam=lam)
    assert rep.max_abs < 1e-10
    assert abs(rep.convergence_order - 2.0) < 0.3


def test_ode_residual_argument_guards():
    entry = h3_quantize(1, 5.0, 2, Component.R1)
    sol = h3_radial_solution(1, 5.0, entry.lambda_sq, Component.R1,
                             entry.variant)
    with pytest.raises(DomainError):
        ode_residual(sol, Component.R1, Grid1D(0.3, 8.0, 100),
                     two_m=1, B=5.0)  # lambda_sq missing
    with pytest.raises(DomainError):
        ode_residual(sol, Component.R1, Grid1D(0.0, 8.0, 100),
                     two_m=1, B=5.0, lambda_sq=16.0)  # grid touches r = 0
    with pytest.raises(DomainError):
        # solution lives on the radial variable, component is axial
        ode_residual(sol, Component.Z1, Grid1D(-1.0, 1.0, 100),
                     p=1.0, lam=1.0)
    z1 = H3_GEOMETRY.axial_solution(0.7, 1.3, Component.Z1)
    for grid in (Grid1D(-40.0, 40.0, 100), Grid1D(-2.0, 19.0, 1500)):
        # the grid image reaches y = 1 after rounding, where the
        # connection still sums the form exactly
        rep = ode_residual(z1, Component.Z1, grid, p=0.7, lam=1.3)
        assert rep.max_abs <= 1e-13
    with pytest.raises(EvaluationDomain):
        # 1 - y underflows to 0 past z ~ 372
        ode_residual(z1, Component.Z1, Grid1D(-2.0, 400.0, 1500),
                     p=0.7, lam=1.3)


@pytest.mark.parametrize("component", [Component.Z1, Component.Z2])
def test_axial_residual_exact_past_old_domain_edge(component):
    # z = 15 puts 1 - y near 1e-13, inside the old |y| < 1 - 1e-12 refusal
    p, lam = 0.7, 1.3
    sol = H3_GEOMETRY.axial_solution(p, lam, component)
    rep = ode_residual(sol, component, Grid1D(-2.0, 15.0, 1500), p=p, lam=lam)
    assert rep.max_abs < 1e-13
    assert abs(rep.convergence_order - 2.0) < 0.1


def _axial_z1(geometry):
    """(Z1 form, its equation's keywords, grid) on the given space."""
    if geometry is Geometry.H3:
        p, lam, grid = 0.7, 1.3, Grid1D(-2.0, 2.0, 1000)
    else:
        lam = math.sqrt(3.0)
        p, grid = s3_axial_quantize(lam, 2), Grid1D(-1.3, 1.3, 1000)
    return (geometry.record.axial_solution(p, lam, Component.Z1),
            dict(p=p, lam=lam), grid)


def _radial_r1(geometry):
    """(R1 bound-state form, its equation's keywords, grid)."""
    if geometry is Geometry.H3:
        two_m, B, n, quantize, build = 1, 5.0, 2, h3_quantize, h3_radial_solution
        grid = Grid1D(0.3, 8.0, 1200)
    else:
        two_m, B, n, quantize, build = -1, 1.0, 1, s3_quantize, s3_radial_solution
        grid = Grid1D(0.2, math.pi - 0.2, 1200)
    entry = quantize(two_m, B, n, Component.R1)
    sol = build(two_m, B, entry.lambda_sq, Component.R1, entry.variant)
    return sol, dict(two_m=two_m, B=B, lambda_sq=entry.lambda_sq), grid


@pytest.mark.parametrize("geometry", [Geometry.H3, Geometry.S3])
def test_partner_equation_rejects_the_form(geometry):
    # Z1/Z2 (and R1/R2) equations differ in the sign of one term only;
    # a form metered as its partner must fail, so a flipped sign cannot
    # pass unnoticed
    for (sol, kw, grid), partner in ((_axial_z1(geometry), Component.Z2),
                                     (_radial_r1(geometry), Component.R2)):
        rep = ode_residual(sol, partner, grid, **kw)
        assert rep.max_abs > 1e-3
        assert rep.convergence_order < 0.5


@pytest.mark.parametrize("geometry", [Geometry.H3, Geometry.S3])
def test_component_must_match_the_form_coordinate(geometry):
    z1, axial_kw, axial_grid = _axial_z1(geometry)
    r1, radial_kw, radial_grid = _radial_r1(geometry)
    with pytest.raises(DomainError):
        ode_residual(r1, Component.Z1, axial_grid, **axial_kw)
    with pytest.raises(DomainError):
        ode_residual(z1, Component.R2, radial_grid, **radial_kw)
    with pytest.raises(DomainError):
        first_order_system_residual((z1, r1, 1.0), axial_grid, lam=1.0, p=1.0)


# ---------------------------------------------------------------------------
# First-order systems
# ---------------------------------------------------------------------------


def _h3_pair():
    entry = h3_quantize(1, 5.0, 2, Component.R1)
    lam = math.sqrt(entry.lambda_sq)
    s1 = h3_radial_solution(1, 5.0, entry.lambda_sq, Component.R1, Variant.V1)
    s2 = h3_radial_solution(1, 5.0, entry.lambda_sq, Component.R2, Variant.V4P)
    fac = H3_GEOMETRY.radial_pair(1, 5.0, entry.lambda_sq, RadialPair.V1_V4P)[2]
    return (s1, s2, fac), lam


def test_system_residual_exact_and_scaled_fault():
    pair, lam = _h3_pair()
    grid = Grid1D(0.3, 8.0, 1200)
    rep = first_order_system_residual(pair, grid,
                                      lam=lam, two_m=1, B=5.0)
    assert rep.max_abs < 1e-8
    assert abs(rep.convergence_order - 2.0) < 0.3
    bad = (pair[0], pair[1], 2.0 * pair[2])
    rep = first_order_system_residual(bad, grid,
                                      lam=lam, two_m=1, B=5.0)
    assert rep.max_abs > 0.1


def test_system_residual_guards():
    pair, lam = _h3_pair()
    with pytest.raises(ZeroLambda):
        first_order_system_residual(pair, Grid1D(0.3, 8.0, 100), lam=0.0,
                                    two_m=1, B=5.0)
    with pytest.raises(DomainError):
        first_order_system_residual(pair, Grid1D(0.0, 8.0, 100), lam=lam,
                                    two_m=1, B=5.0)
    with pytest.raises(DomainError):
        first_order_system_residual(H3_GEOMETRY.axial_pair(0.7, 1.3),
                                    Grid1D(-1.0, 1.0, 100), lam=1.3)  # no p
    for grid in (Grid1D(-40.0, 40.0, 100), Grid1D(-2.0, 19.0, 1500)):
        rep = first_order_system_residual(H3_GEOMETRY.axial_pair(0.7, 1.3),
                                          grid, lam=1.3, p=0.7)
        assert rep.max_abs <= 1e-13
    with pytest.raises(EvaluationDomain):
        first_order_system_residual(H3_GEOMETRY.axial_pair(0.7, 1.3),
                                    Grid1D(-2.0, 400.0, 1500), lam=1.3, p=0.7)


def test_axial_system_residual_exact_past_old_domain_edge():
    # cosh z multiplies f' + i p f, whose terms grow like cosh(hi) and
    # cancel; the pointwise normalization keeps an exact pair at
    # rounding level however wide the grid
    p, lam = 0.7, 1.3
    for hi in (15.0, 18.0):
        rep = first_order_system_residual(H3_GEOMETRY.axial_pair(p, lam),
                                          Grid1D(-2.0, hi, 1500), lam=lam, p=p)
        assert rep.max_abs <= 1e-13
        assert abs(rep.convergence_order - 2.0) < 0.1


@pytest.mark.parametrize("geometry, grid, count", [
    (Geometry.H3, Grid1D(0.3, 8.0, 600), 43),
    (Geometry.S3, Grid1D(0.2, math.pi - 0.2, 600), 150),
], ids=["h3", "s3"])
def test_negative_field_pairs_solve_their_system(geometry, grid, count):
    """At B < 0 the reflection swaps a pair's components: the R1 form
    is built from the pair's R2 variant and the R2 form from its R1
    variant. pair_factor, called at the caller's (two_m, B), must couple
    them to rounding level. Every admissible level of the sweep is
    metered on each pair that carries its variant and whose two forms
    build; `count` keeps the sweep from going empty."""
    rec = geometry.record
    metered = 0
    for B in (-0.7, -2.5, -5.0):
        for two_m in range(-9, 10, 2):
            for n in range(5):
                entry = rec.quantize(two_m, B, n, Component.R1)
                if not entry.admissible:
                    continue
                lam = math.sqrt(entry.lambda_sq)
                for pair in rec.pairs:
                    v1, v2 = (Variant[name] for name in pair.name.split("_"))
                    if entry.variant not in (v1, v2):
                        continue
                    try:
                        r1 = rec.radial_solution(two_m, B, entry.lambda_sq,
                                                 Component.R1, v2)
                        r2 = rec.radial_solution(two_m, B, entry.lambda_sq,
                                                 Component.R2, v1)
                    except InadmissibleVariant:
                        continue
                    fac = rec.radial_pair(two_m, B, entry.lambda_sq, pair)[2]
                    rep = first_order_system_residual(
                        (r1, r2, fac), grid, lam=lam, two_m=two_m, B=B)
                    assert rep.max_abs <= 1e-9, (two_m, B, n, pair.name,
                                                 rep.max_abs)
                    metered += 1
    assert metered == count


def test_pair_of_the_other_space_is_rejected():
    """Both tables have V1 and V2 rows, so a foreign member would
    otherwise read a factor off the wrong row."""
    s3 = Geometry.S3.record
    with pytest.raises(DomainError, match="pair table"):
        H3_GEOMETRY.radial_pair(1, 5.0, 9.0, RadialPair.V2_V4P)
    with pytest.raises(DomainError, match="pair table"):
        s3.radial_pair(1, 1.0, 3.0, RadialPair.V1_V4P)


def _closed_form_factor(rec, two_m, B, lambda_sq, pair):
    """The pair's r2/r1 factor from its primary row's exponents, without
    the record's pair code: at the reflected point (-m, -B for B < 0),
    q = sqrt(B^2 + kappa lambda_sq), d = c if the row is shifted else 0,
    k = phase (s - q - d)(s + q - d)/(lam c) with phase -i on H3 and -1
    on S3; -1/k where the primary row is the caller's R2 row."""
    row = pair.value
    callers_r1 = row.r2 if B < 0.0 else row.r1
    if B < 0.0:
        two_m, B = -two_m, -B
    primary = {v.variant: v for v in rec.variants}[row.primary]
    _, _, s, c = primary.exponents(two_m / 2.0, B)
    q = math.sqrt(B * B + rec.kappa * lambda_sq)
    d = c if row.shifted else 0.0
    lam = math.sqrt(lambda_sq)
    num = (-1j if rec.kappa < 0 else -1.0) * ((s - q - d) * (s + q - d))
    return num / (lam * c) if row.primary is callers_r1 else -(lam * c) / num


def _bits(x):
    return repr(complex(x))


def _assert_same_triple(got, want):
    for g, w in zip(got[:2], want[:2]):
        assert g.variable is w.variable
        assert [_bits(v) for v in (g.exp_a, g.exp_c, g.params.a, g.params.b,
                                   g.params.c)] == \
            [_bits(v) for v in (w.exp_a, w.exp_c, w.params.a, w.params.b,
                                w.params.c)]
    assert _bits(got[2]) == _bits(want[2])


@pytest.mark.parametrize("geometry, grid, count", [
    (Geometry.H3, Grid1D(0.3, 8.0, 600), 43),
    (Geometry.S3, Grid1D(0.2, math.pi - 0.2, 600), 150),
], ids=["h3", "s3"])
def test_radial_pair_is_the_explicit_construction(geometry, grid, count):
    """radial_pair at B < 0 builds R1 from the row's R2 variant and R2
    from its R1 variant, with the closed-form factor at the caller's
    (two_m, B): the same forms and factor bit for bit, over the sweep of
    test_negative_field_pairs_solve_their_system."""
    rec = geometry.record
    metered = 0
    for B in (-0.7, -2.5, -5.0):
        for two_m in range(-9, 10, 2):
            for n in range(5):
                entry = rec.quantize(two_m, B, n, Component.R1)
                if not entry.admissible:
                    continue
                lam_sq = entry.lambda_sq
                for pair in rec.pairs:
                    row = pair.value
                    if entry.variant not in (row.r1, row.r2):
                        continue
                    try:
                        want = (rec.radial_solution(two_m, B, lam_sq,
                                                    Component.R1, row.r2),
                                rec.radial_solution(two_m, B, lam_sq,
                                                    Component.R2, row.r1))
                    except InadmissibleVariant:
                        continue
                    lam = math.sqrt(lam_sq)
                    want += (_closed_form_factor(rec, two_m, B, lam_sq, pair),)
                    got = rec.radial_pair(two_m, B, lam_sq, pair)
                    _assert_same_triple(got, want)
                    rep = first_order_system_residual(
                        got, grid, lam=lam, two_m=two_m, B=B)
                    assert rep.max_abs <= 1e-9, (two_m, B, n, pair.name)
                    metered += 1
    assert metered == count


@pytest.mark.parametrize("geometry, two_m, B, n, pair", [
    (Geometry.H3, 1, 5.0, 2, RadialPair.V1_V4P),
    (Geometry.H3, -1, 5.0, 1, RadialPair.V2_V3P),
    (Geometry.S3, -1, 1.0, 0, RadialPair.V1_V3P),
    (Geometry.S3, 1, 1.0, 1, RadialPair.V2_V4P),
    (Geometry.S3, 7, 1.0, 0, RadialPair.V3_V1P),
], ids=lambda v: getattr(v, "name", None))
def test_radial_pair_of_the_verify_levels(geometry, two_m, B, n, pair):
    """At B > 0 radial_pair is (R1 of the row's r1, R2 of its r2,
    closed-form factor) at each level the pairs suite meters."""
    rec = geometry.record
    grid = (Grid1D(0.3, 8.0, 1200) if geometry is Geometry.H3
            else Grid1D(0.2, math.pi - 0.2, 1200))
    lam_sq = rec.quantize(two_m, B, n, Component.R1).lambda_sq
    lam = math.sqrt(lam_sq)
    row = pair.value
    want = (rec.radial_solution(two_m, B, lam_sq, Component.R1, row.r1),
            rec.radial_solution(two_m, B, lam_sq, Component.R2, row.r2),
            _closed_form_factor(rec, two_m, B, lam_sq, pair))
    got = rec.radial_pair(two_m, B, lam_sq, pair)
    _assert_same_triple(got, want)
    rep = first_order_system_residual(got, grid, lam=lam, two_m=two_m, B=B)
    assert rep.max_abs <= 1e-9


def test_radial_pair_exists_where_both_forms_build():
    """Over both spaces, both signs of B and two_m in -9..9 at every
    admissible R1 level n <= 4, radial_pair raises InadmissibleVariant
    exactly where radial_solution refuses one of the pair's two
    variants (as the reflection assigns them) and nothing else; every
    pair it builds solves its system. S3 (2,4') at m = 5/2, B = 1 has
    c = 0 in variant 2's form, which needs m < 2B."""
    grids = {Geometry.H3: Grid1D(0.3, 8.0, 600),
             Geometry.S3: Grid1D(0.2, math.pi - 0.2, 600)}
    built = refused = 0
    for geometry, grid in grids.items():
        rec = geometry.record
        for B in (-5.0, -2.5, -0.7, 0.7, 1.0, 2.5, 5.0):
            for two_m in range(-9, 10, 2):
                for n in range(5):
                    entry = rec.quantize(two_m, B, n, Component.R1)
                    if not entry.admissible:
                        continue
                    lam_sq = entry.lambda_sq
                    for pair in rec.pairs:
                        row = pair.value
                        v1, v2 = (row.r2, row.r1) if B < 0 else (row.r1, row.r2)
                        try:
                            rec.radial_solution(two_m, B, lam_sq, Component.R1, v1)
                            rec.radial_solution(two_m, B, lam_sq, Component.R2, v2)
                        except InadmissibleVariant:
                            with pytest.raises(InadmissibleVariant):
                                rec.radial_pair(two_m, B, lam_sq, pair)
                            refused += 1
                            continue
                        rep = first_order_system_residual(
                            rec.radial_pair(two_m, B, lam_sq, pair), grid,
                            lam=math.sqrt(lam_sq), two_m=two_m, B=B)
                        assert rep.max_abs <= 1e-9, (geometry, two_m, B, n, pair.name)
                        built += 1
    assert (built, refused) == (423, 760)


def test_radial_pair_factor_at_the_forms_root():
    """At S3 (m = 1/2, B = 1, lambda^2 = 3) the forms' root is
    q = sqrt(1 + 3) = 2 exactly; with V2's s = 1 and c = 2 the factor is
    -(s - q)(s + q)/(lam c) there, not at q = sqrt(1 + sqrt(3)^2), which
    is one ulp off."""
    factor = S3_GEOMETRY.radial_pair(1, 1.0, 3.0, RadialPair.V2_V4P)[2]
    assert factor == -((1.0 - 2.0) * (1.0 + 2.0)) / (math.sqrt(3.0) * 2.0)


def _axial_states(geometry, n_zs=range(7)):
    """(p, lam) sweep at three lam each: h3 p in [0.2, 2], s3 the
    quantized levels n_zs (n_z <= 6 unless given; the levels above are
    the expected failure below)."""
    if geometry is Geometry.H3:
        return [(p, lam) for lam in (0.3, 1.3, 3.1)
                for p in (0.2, 0.65, 1.1, 1.55, 2.0)]
    return [(s3_axial_quantize(lam, n_z), lam)
            for lam in (0.4, math.sqrt(3.0), 4.5) for n_z in n_zs]


_AXIAL_GRIDS = {Geometry.H3: Grid1D(-2.0, 2.0, 400),
                Geometry.S3: Grid1D(-1.3, 1.3, 400)}


def _assert_axial_pairs_exact(geometry, states):
    rec, grid = geometry.record, _AXIAL_GRIDS[geometry]
    for p, lam in states:
        z1, z2, factor = rec.axial_pair(p, lam)
        for component, form in ((Component.Z1, z1), (Component.Z2, z2)):
            rep = ode_residual(form, component, grid, p=p, lam=lam)
            assert rep.max_abs <= 1e-10, (p, lam, component)
        rep = first_order_system_residual((z1, z2, factor), grid, lam=lam, p=p)
        assert rep.max_abs <= 1e-12, (p, lam)


@pytest.mark.parametrize("geometry", [Geometry.H3, Geometry.S3])
def test_axial_pair_solves_its_equations(geometry):
    """Both forms of axial_pair solve their second-order equations and,
    with the pair's factor, the first-order system, on both spaces."""
    _assert_axial_pairs_exact(geometry, _axial_states(geometry))


@pytest.mark.xfail(strict=True, reason=(
    "terminating s3 axial series lose digits to cancellation from n_z = 7 "
    "(lam = 4.5) to n_z = 9 (lam = 0.4); values are off by up to 3e-6 of "
    "the sup-norm at n_z = 20"))
def test_axial_pair_solves_its_equations_at_high_s3_levels():
    _assert_axial_pairs_exact(Geometry.S3,
                              _axial_states(Geometry.S3, range(7, 21)))


@pytest.mark.parametrize("geometry", [Geometry.H3, Geometry.S3])
def test_axial_pair_refuses_zero_lambda(geometry):
    with pytest.raises(ZeroLambda):
        geometry.record.axial_pair(1.5, 0.0)


def test_axial_solution_guards():
    s3, h3 = Geometry.S3.record, H3_GEOMETRY
    # p = 1 is no level of lam = sqrt(3): the compact space refuses it,
    # the open one builds its continuum form
    for component in (Component.Z1, Component.Z2):
        with pytest.raises(NonTerminating):
            s3.axial_solution(1.0, math.sqrt(3.0), component)
        assert not h3.axial_solution(1.0, math.sqrt(3.0),
                                     component).params.terminating
    with pytest.raises(DomainError, match="p must be > 0"):
        s3.axial_solution(-1.0, math.sqrt(3.0), Component.Z1)
    for rec in (s3, h3):
        with pytest.raises(DomainError, match="Z1 or Z2"):
            rec.axial_solution(2.5, 1.0, Component.R1)


# ---------------------------------------------------------------------------
# Commutator convergence
# ---------------------------------------------------------------------------


def _dense_gammas():
    """gamma_1, gamma_2, gamma_3 as dense 4x4 matrices, [[0, s_k], [-s_k, 0]]
    with s_k the Pauli matrices, built here apart from the oracle's."""
    pauli = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
             np.array([[1, 0], [0, -1]]))
    out = []
    for s in pauli:
        g = np.zeros((4, 4), dtype=complex)
        g[:2, 2:], g[2:, :2] = s, -s
        out.append(g)
    return out


_D1, _D2, _D3 = _dense_gammas()
_DENSE = {"_G1": _D1, "_G2": _D2, "_G3": _D3, "_G23": _D2 @ _D3,
          "_G31": _D3 @ _D1, "_G12": _D1 @ _D2, "_G123": _D1 @ _D2 @ _D3}


@pytest.mark.parametrize("name", ["_G1", "_G2", "_G3", "_G23", "_G31", "_G12",
                                  "_G123"])
def test_gamma_products_apply_as_signed_permutations(name):
    # component a of g psi is phase * psi[row] for the table's (row, phase),
    # bit for bit the dense product, with a unit or a real coefficient
    # folded into the phase
    table, mat = getattr(oracle, name), _DENSE[name]
    assert sorted(row for row, _ in table) == [0, 1, 2, 3]
    assert {phase for _, phase in table} <= {1, -1, 1j, -1j}
    rng = np.random.default_rng(5)
    psi = rng.normal(size=(4, 9, 11)) + 1j * rng.normal(size=(4, 9, 11))
    dense = np.einsum("ab,b...->a...", mat, psi)
    coef = rng.normal(size=(9, 1))
    for a in range(4):
        assert np.array_equal(oracle._term(table, a, psi), dense[a])
        assert np.array_equal(oracle._term(table, a, psi, 1j), 1j * dense[a])
        assert np.array_equal(oracle._term(table, a, psi, coef), coef * dense[a])


def test_gradient_has_numpys_bits():
    rng = np.random.default_rng(11)
    for shape in ((3, 7), (16, 5), (41, 40)):
        f = ((rng.normal(size=shape) + 1j * rng.normal(size=shape))
             * np.exp(rng.uniform(-30, 30, shape)))
        for axis in (0, 1):
            h = rng.uniform(1e-3, 0.5)
            assert np.array_equal(oracle._gradient(f, h, axis),
                                  np.gradient(f, h, axis=axis, edge_order=2))


def _two_bumps(centres, widths):
    """A spinor that is no amplitude vector times one function: two
    Gaussian bumps, each with its own four amplitudes."""
    amps = (np.array([1.0, 0.6 - 0.3j, -0.4j, 0.25]),
            np.array([-0.3 + 0.5j, 0.8, 0.2 + 0.1j, -0.9j]))

    def spinor(r, z):
        out = np.zeros((4,) + r.shape, dtype=complex)
        for amp, (r0, z0), w in zip(amps, centres, widths):
            out += amp[:, None, None] * np.exp(-((r - r0) ** 2 + (z - z0) ** 2)
                                              / (2.0 * w * w))
        return out

    return spinor


def _reference_commutator(rec, B, two_m, spinor, grid, factor, flat):
    """The commutator probe's residual on the one grid grid.scaled(factor),
    on the full spinor and the full grid: H and Sigma by dense gamma
    matrices (einsum) and np.gradient, Sigma H by its expansion, as
    commutator_residual's docstring states them."""
    g = grid.scaled(factor)
    rs, zs = g.r.nodes(), g.z.nodes()
    hr = (g.r.hi - g.r.lo) / (g.r.points - 1)
    hz = (g.z.hi - g.z.lo) / (g.z.points - 1)
    R, Z = np.meshgrid(rs, zs, indexing="ij")
    psi = spinor(R, Z)
    m = two_m / 2.0
    mu = rec.mu(rs, m, B)[None, :, None]
    mu_p = rec.mu_prime(rs, m, B)[None, :, None]
    c = rec.stretch(zs)
    inv = (1.0 / c)[None, None, :]
    inv_p = (-rec.stretch_prime(zs) / c ** 2)[None, None, :]
    g1, g2, g3 = _D1, _D2, _D3
    g123 = g1 @ g2 @ g3

    def gam(mat, f):
        return np.einsum("ab,bij->aij", mat, f)

    def d_r(f):
        return np.gradient(f, hr, axis=1, edge_order=2)

    def d_z(f):
        return np.gradient(f, hz, axis=2, edge_order=2)

    def hamiltonian(f):
        return inv * (1j * gam(g1, d_r(f)) - mu * gam(g2, f)) + 1j * gam(g3, d_z(f))

    def helicity(f):
        radial = gam(g2 @ g3, d_r(f)) + 1j * mu * gam(g3 @ g1, f)
        return (radial if flat else inv * radial) + gam(g1 @ g2, d_z(f))

    psi_r, psi_z = d_r(psi), d_z(psi)
    block_rr = (1j * gam(g123, d_r(psi_r)) - mu_p * gam(g3, psi)
                - 1j * mu * mu * gam(g123, psi))
    expanded = (1j * gam(g123, d_z(psi_z))
                + inv_p * (1j * gam(g2, psi_r) + mu * gam(g1, psi)))
    if flat:
        expanded = expanded + inv * block_rr + (inv - 1.0) * (
            1j * gam(g2, d_z(psi_r)) + mu * gam(g1, psi_z))
    else:
        expanded = expanded + inv * inv * block_rr
    comm = hamiltonian(helicity(psi)) - expanded
    tr = oracle._core_trim(grid.r.points, factor)
    tz = oracle._core_trim(grid.z.points, factor)
    return float(np.max(np.abs(comm[:, tr:-tr, tz:-tz])) / np.max(np.abs(psi)))


@pytest.mark.parametrize("levels", [((80, 4), (159, 8), (317, 16)),
                                    ((40, 3), (79, 6), (157, 12))],
                         ids=["80-points", "40-points"])
def test_probe_core_is_one_window_on_nested_grids(levels):
    # 80, 159 and 317 points trim 4, 8 and 16 cells, and the dense
    # reference's 40, 79 and 157 points (under the floor of 3) 3, 6 and
    # 12: the same (r, z) core at every level
    grid = Grid2D(Grid1D(0.05, 4.0, levels[0][0]),
                  Grid1D(-1.2, 1.2, levels[0][0]))
    windows = []
    for k, (points, t) in enumerate(levels):
        g = grid.scaled(2 ** k)
        assert (g.r.points, oracle._core_trim(grid.r.points, 2 ** k)) == (points, t)
        rs, zs = g.r.nodes(), g.z.nodes()
        windows.append((rs[t], rs[-1 - t], zs[t], zs[-1 - t]))
    for window in windows[1:]:
        assert np.allclose(window, windows[0], rtol=0.0, atol=1e-14), window


@pytest.mark.parametrize("strip", [None, 1])
@pytest.mark.parametrize("flat", [False, True])
@pytest.mark.parametrize("space", ["h3", "s3"])
def test_commutator_probe_matches_a_dense_reference(space, flat, strip,
                                                     monkeypatch):
    # per component on cached blocks, the probe reads what the full-spinor
    # evaluation with dense gamma matrices reads, at every grid level; on
    # blocks of one core row every core value reads the halo
    if strip is not None:
        monkeypatch.setattr(oracle, "_STRIP", strip)
    if space == "h3":
        rec, B, two_m = H3_GEOMETRY, 5.0, 1
        grid = Grid2D(Grid1D(0.05, 4.0, 40), Grid1D(-2.0, 2.0, 36))
        spinor = _two_bumps(((1.5, -0.4), (2.6, 0.5)), (0.4, 0.6))
    else:
        rec, B, two_m = S3_GEOMETRY, 1.0, -3
        grid = Grid2D(Grid1D(0.05, math.pi - 0.05, 36),
                      Grid1D(-1.2, 1.2, 40))
        spinor = _two_bumps(((1.2, 0.2), (2.0, -0.3)), (0.35, 0.5))
    levels = []
    for k in range(3):
        got = oracle._commutator_sup(rec, B, two_m / 2.0, spinor, grid,
                                     2 ** k, flat)
        ref = _reference_commutator(rec, B, two_m, spinor, grid, 2 ** k, flat)
        assert abs(got - ref) <= 1e-12 * ref, (k, got, ref)
        assert got == ref, (k, got, ref)  # the same bits
        levels.append(got)
    rep = commutator_residual(rec.radial_variable.geometry, B, spinor, grid,
                              two_m=two_m, flat_helicity=flat)
    assert rep.max_abs == levels[-1]


@pytest.mark.parametrize("r0, z0, width", [
    (2.0, 0.0, 0.0), (2.0, 0.0, -0.5), (2.0, 0.0, math.nan), (2.0, 0.0, math.inf),
    (math.nan, 0.0, 0.5), (math.inf, 0.0, 0.5), (2.0, math.nan, 0.5),
    (2.0, -math.inf, 0.5)])
def test_gaussian_bump_needs_finite_centre_and_positive_width(r0, z0, width):
    with pytest.raises(DomainError):
        gaussian_bump_spinor(r0, z0, width)


def test_commutator_second_order_h3():
    spinor = gaussian_bump_spinor(2.0, 0.0, 0.5)
    rep = commutator_residual(Geometry.H3, 5.0, spinor,
                              _H3_GRID, two_m=1)
    assert abs(rep.convergence_order - 2.0) < 0.3


def test_commutator_second_order_s3():
    spinor = gaussian_bump_spinor(1.5, 0.0, 0.3)
    rep = commutator_residual(
        Geometry.S3, 1.0, spinor,
        _S3_GRID, two_m=1)
    assert abs(rep.convergence_order - 2.0) < 0.3


def test_commutator_constant_spinor():
    amps = np.array([1.0, 0.5, -0.25j, 0.1 + 0.1j], dtype=complex)

    def spinor(r, z):
        return np.broadcast_to(amps[:, None, None], (4,) + r.shape).copy()

    rep = commutator_residual(Geometry.H3, 5.0, spinor,
                              _H3_GRID, two_m=1)
    assert abs(rep.convergence_order - 2.0) < 0.3


def test_commutator_flat_fault_detected():
    spinor = gaussian_bump_spinor(2.0, 0.0, 0.5)
    rep = commutator_residual(Geometry.H3, 5.0, spinor,
                              _H3_GRID,
                              two_m=1, flat_helicity=True)
    assert rep.max_abs > 0.01
    assert rep.convergence_order < 0.5


def test_commutator_of_a_zero_spinor_reads_zero():
    # every level's residual is 0, so no order is measured: it reads 0
    def spinor(r, z):
        return np.zeros((4,) + r.shape, dtype=complex)

    rep = commutator_residual(Geometry.H3, 5.0, spinor, _H3_GRID, two_m=1)
    assert (rep.max_abs, rep.convergence_order) == (0.0, 0.0)


def test_commutator_refuses_a_spinor_of_the_wrong_shape():
    def spinor(r, z):
        return np.ones((2,) + r.shape, dtype=complex)

    with pytest.raises(DomainError, match=r"^test spinor must return shape \(4, nr, nz\)"):
        commutator_residual(Geometry.H3, 5.0, spinor, _H3_GRID, two_m=1)


def test_commutator_singular_support_rejected():
    spinor = gaussian_bump_spinor(1.0, 0.0, 0.3)
    with pytest.raises(SupportTooCloseToSingularity):
        commutator_residual(Geometry.H3, 5.0, spinor,
                            Grid2D(Grid1D(0.01, 4.0, 80), _H3_GRID.z))
    with pytest.raises(SupportTooCloseToSingularity):
        commutator_residual(Geometry.S3, 1.0, spinor,
                            Grid2D(_S3_GRID.r, Grid1D(-1.6, 1.6, 80)))


def test_commutator_needs_finite_field():
    spinor = gaussian_bump_spinor(2.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        commutator_residual(Geometry.H3, math.inf, spinor,
                            _H3_GRID)


# ---------------------------------------------------------------------------
# Axial connection integration
# ---------------------------------------------------------------------------


def test_connection_coefficients_match_integrated_solution():
    rep = axial_connection_check(2.0, 1.0)
    assert rep.max_abs < 1e-5


def test_connection_even_in_p():
    a = axial_connection_check(2.0, 1.0)
    b = axial_connection_check(-2.0, 1.0)
    assert abs(a.max_abs - b.max_abs) < 1e-12


def test_connection_guards():
    with pytest.raises(DegenerateConnection):
        axial_connection_check(2.0, 0.0)
    with pytest.raises(DomainError):
        axial_connection_check(0.0, 1.0)
