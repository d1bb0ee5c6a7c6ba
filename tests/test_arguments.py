"""One rule for every number argument of the public API.

Each number parameter of each public callable (the package root's,
``oracle``'s and ``hyp2f1``'s ``__all__``, ``checks.run_suites``, and the
per-space wrappers that ``lobachevsky`` and ``spherical`` keep for
``bench/``)
refuses NaN, +-inf, an int past the float range (10**400) and one whose
decimal form passes Python's digit limit (-10**5000): with DomainError,
or with Hyp2F1Error in the kernel, whose message starts with the
parameter's name. A GeometryRecord method stands in the table for
Geometry, whose records carry the models' methods.
"""

import math
import warnings

import numpy as np
import pytest

import curved_landau
from curved_landau import checks, hyp2f1, lobachevsky, oracle, spherical
from curved_landau.hyp2f1 import Hyp2F1Error, Hyp2F1Params, KummerBranch
from curved_landau.model import (
    Component,
    DomainError,
    EvaluationDomain,
    Geometry,
    RadialPair,
    SigmaBranch,
)

BAD = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
       "1e400": 10 ** 400, "-1e5000": -10 ** 5000}

R1, Z1 = Component.R1, Component.Z1
H3, S3 = Geometry.H3.record, Geometry.S3.record
LAM_S3 = math.sqrt(3.0)
P_S3 = LAM_S3 + 1.5  # s3_axial_quantize(LAM_S3, 1)
PARAMS = (0.3, 0.2, 1.1)


def _with(call, varied, /, **fixed):
    """{name: (lambda v: call(**fixed with name set to v))} per varied name."""
    return {name: (lambda v, name=name: call(**{**fixed, name: v}))
            for name in varied}


def _params_with(name, v):
    return Hyp2F1Params(**{**dict(zip("abc", PARAMS)), name: v})


def _record_rows(rec, label, two_m, B, n, lam_sq, variant, pair, p, lam):
    """The rows of one GeometryRecord's methods at a valid state."""
    state = dict(two_m=two_m, B=B)
    return {
        f"{label}.quantize": _with(rec.quantize, ("two_m", "B", "n"), **state,
                                   n=n, component=R1),
        f"{label}.audits": {
            **_with(rec.audits, ("two_m", "B"), **state, ns=[n]),
            "n": lambda v: rec.audits(two_m, B, [n, v])},
        f"{label}.radial_solution": _with(
            rec.radial_solution, ("two_m", "B", "lambda_sq"), **state,
            lambda_sq=lam_sq, component=R1, variant=variant),
        f"{label}.radial_pair": _with(rec.radial_pair, ("two_m", "B", "lambda_sq"),
                                      **state, lambda_sq=lam_sq, pair=pair),
        f"{label}.axial_solution": _with(rec.axial_solution, ("p", "lam"),
                                         p=p, lam=lam, component=Z1),
        f"{label}.axial_pair": _with(rec.axial_pair, ("p", "lam"), p=p, lam=lam),
        **{f"{label}.{method.__name__}": _with(method, ("r", "m", "B"),
                                               r=1.0, m=0.5, B=1.0)
           for method in (rec.mu, rec.mu_prime)},
        f"{label}.radial_potential": _with(rec.radial_potential, ("r", "m", "B"),
                                           r=1.0, m=0.5, B=1.0, component=R1),
    }


def _table():
    """{owner: {label: {parameter: call taking the parameter's value}}}."""
    h3 = H3.quantize(1, 5.0, 1, R1)
    s3 = S3.quantize(1, 1.0, 1, R1)
    axial = H3.axial_solution(0.7, 1.3, Z1)
    radial = H3.radial_solution(1, 5.0, h3.lambda_sq, R1, h3.variant)
    zpair = H3.axial_pair(0.7, 1.3)
    rpair = H3.radial_pair(1, 5.0, h3.lambda_sq, RadialPair.V1_V4P)
    zgrid, rgrid = oracle.Grid1D(-1.0, 1.0, 40), oracle.Grid1D(0.3, 8.0, 100)
    grid2d = oracle.Grid2D(oracle.Grid1D(1.0, 3.0, 40), oracle.Grid1D(-0.5, 0.5, 40))
    spinor = oracle.gaussian_bump_spinor(2.0, 0.0, 0.5)
    params = Hyp2F1Params(*PARAMS)
    kernel_points = {
        "y": lambda call: lambda v: call(params, v),
        "y (array)": lambda call: lambda v: call(params, [0.1, v]),
    }
    return {
        "Hyp2F1Params": {"Hyp2F1Params": {
            name: (lambda v, name=name: _params_with(name, v)) for name in "abc"}},
        "kummer_connection": {"kummer_connection": {
            name: (lambda v, name=name: hyp2f1.kummer_connection(_params_with(name, v)))
            for name in "abc"}},
        **{fn.__name__: {fn.__name__: {
            **{k: make(fn) for k, make in kernel_points.items()},
            **({"w": lambda v, fn=fn: fn(params, 0.3, v)}
               if fn in (hyp2f1.eval_2f1, hyp2f1.series_with_derivatives) else {})}}
           for fn in (hyp2f1.eval_2f1, hyp2f1.series_with_derivatives,
                      hyp2f1.u2_value, hyp2f1.u6_value)},
        "log_gamma": {"log_gamma": {"z": hyp2f1.log_gamma}},
        "Geometry": {
            **_record_rows(H3, "H3", 1, 5.0, 1, h3.lambda_sq, h3.variant,
                           RadialPair.V1_V4P, 0.7, 1.3),
            **_record_rows(S3, "S3", 1, 1.0, 1, s3.lambda_sq, s3.variant,
                           RadialPair.V1_V3P, P_S3, LAM_S3)},
        "h3_quantize": {"h3_quantize": _with(
            lobachevsky.h3_quantize, ("two_m", "B", "n"), two_m=1, B=5.0, n=1,
            component=R1)},
        "s3_quantize": {"s3_quantize": _with(
            spherical.s3_quantize, ("two_m", "B", "n"), two_m=1, B=1.0, n=1,
            component=R1)},
        "h3_radial_solution": {"h3_radial_solution": _with(
            lobachevsky.h3_radial_solution, ("two_m", "B", "lambda_sq"), two_m=1,
            B=5.0, lambda_sq=h3.lambda_sq, component=R1, variant=h3.variant)},
        "s3_radial_solution": {"s3_radial_solution": _with(
            spherical.s3_radial_solution, ("two_m", "B", "lambda_sq"), two_m=1,
            B=1.0, lambda_sq=s3.lambda_sq, component=R1, variant=s3.variant)},
        "h3_axial_solution": {
            f"h3_axial_solution[{branch.name}]": _with(
                curved_landau.h3_axial_solution, ("p", "lam"), p=0.7, lam=1.3,
                branch=branch)
            for branch in KummerBranch},
        "s3_axial_solution": {"s3_axial_solution": _with(
            spherical.s3_axial_solution, ("p", "lam"), p=P_S3, lam=LAM_S3)},
        "s3_axial_quantize": {"s3_axial_quantize": _with(
            curved_landau.s3_axial_quantize, ("lam", "n_z"), lam=LAM_S3, n_z=1)},
        "s3_total_energy": {"s3_total_energy": _with(
            curved_landau.s3_total_energy, ("M", "p"), M=1.0, p=P_S3)},
        "flat_limit": {"flat_limit": _with(
            curved_landau.flat_limit, ("b_physical", "n", "rho"), b_physical=1.0,
            n=1, rho=10.0)},
        "helicity_link": {"helicity_link": _with(
            curved_landau.helicity_link, ("epsilon", "M"), epsilon=5.0, M=3.0,
            branch=SigmaBranch.MINUS_P)},
        "Grid1D": {"Grid1D": _with(oracle.Grid1D, ("lo", "hi", "points"),
                                   lo=0.0, hi=1.0, points=16)},
        "radial_eigenvalues_h3": {"radial_eigenvalues_h3": _with(
            oracle.radial_eigenvalues_h3, ("two_m", "B"), two_m=1, B=5.0,
            grid=rgrid)},
        "radial_eigenvalues_s3": {"radial_eigenvalues_s3": _with(
            oracle.radial_eigenvalues_s3, ("two_m", "B", "max_count"), two_m=1,
            B=1.0, grid=oracle.Grid1D(0.0, math.pi, 100),
            max_count=4)},
        "ode_residual": {
            "ode_residual[axial]": _with(
                oracle.ode_residual, ("p", "lam"), solution=axial, component=Z1,
                grid=zgrid, p=0.7, lam=1.3),
            "ode_residual[radial]": _with(
                oracle.ode_residual, ("two_m", "B", "lambda_sq"), solution=radial,
                component=R1, grid=rgrid, two_m=1, B=5.0, lambda_sq=h3.lambda_sq)},
        "first_order_system_residual": {
            "first_order_system_residual[axial]": _with(
                oracle.first_order_system_residual, ("lam", "p"), pair=zpair,
                grid=zgrid, lam=1.3, p=0.7),
            "first_order_system_residual[radial]": _with(
                oracle.first_order_system_residual, ("lam", "two_m", "B"),
                pair=rpair, grid=rgrid, lam=math.sqrt(h3.lambda_sq), two_m=1,
                B=5.0)},
        "commutator_residual": {"commutator_residual": _with(
            oracle.commutator_residual, ("B", "two_m"), geometry=Geometry.H3,
            B=5.0, test_spinor=spinor, grid2d=grid2d, two_m=1)},
        "gaussian_bump_spinor": {"gaussian_bump_spinor": _with(
            oracle.gaussian_bump_spinor, ("r0", "z0", "width"), r0=2.0, z0=0.0,
            width=0.5)},
        "axial_connection_check": {"axial_connection_check": _with(
            oracle.axial_connection_check, ("p", "lam"), p=0.7, lam=1.3)},
        "run_suites": {"run_suites": _with(checks.run_suites, ("tol",),
                                           names=["flat-limit"], tol=1e-9)},
    }


# Public callables that take no number: enums, exceptions, and Grid2D,
# which takes a Grid1D per axis.
NO_NUMBER = {
    "Component", "Variable", "Variant", "RadialPair", "SigmaBranch",
    "KummerBranch", "Grid2D",
    "DomainError", "EvaluationDomain", "InadmissibleVariant",
    "MasslessUnsupported", "NegativeDiscriminant", "NonPositiveLambda",
    "NonTerminating", "SubthresholdEnergy", "SupportTooCloseToSingularity",
    "TruncationTooSmall", "ZeroLambda", "Hyp2F1Error", "NonConvergent",
    "InvalidC", "PoleAtNonPositiveInteger", "DegenerateConnection",
}

# Results the library builds and returns, holding numbers it computed: a
# caller reads them and passes no argument through them. SolutionForm's
# coordinates are tested below.
RESULTS = {"SpectrumEntry", "LevelAudit", "SolutionForm", "ResidualReport",
           "EigenReport", "ConnectionCoefficients"}

TABLE = _table()
CASES = [(owner, label, name, bad)
         for owner, labels in TABLE.items()
         for label, params in labels.items()
         for name in params for bad in BAD]


def test_every_public_callable_is_in_the_table_or_takes_no_number():
    public = {name for module in (curved_landau, oracle, hyp2f1,
                                  lobachevsky, spherical)
              for name in module.__all__ if callable(getattr(module, name))}
    public.add("run_suites")
    listed = set(TABLE) | NO_NUMBER | RESULTS
    assert public == listed
    assert not (set(TABLE) & (NO_NUMBER | RESULTS)) and not NO_NUMBER & RESULTS


@pytest.mark.parametrize("owner, label, name, bad", CASES,
                         ids=[f"{label}-{name}-{bad}" for _, label, name, bad in CASES])
def test_a_number_argument_is_refused_by_name(owner, label, name, bad):
    # "y (array)" is y as a list
    error = Hyp2F1Error if owner in hyp2f1.__all__ else DomainError
    with pytest.raises(error, match=f"^{name.split()[0]}\\b"):
        TABLE[owner][label][name](BAD[bad])


@pytest.mark.parametrize("x", [10 ** 400, -10 ** 5000, [0.5, 10 ** 400],
                               math.nan, math.inf, -math.inf],
                         ids=["1e400", "-1e5000", "list", "nan", "inf", "-inf"])
def test_a_coordinate_past_the_float_range_is_refused(x):
    # a NaN reached the kernel ("y must be finite" as a Hyp2F1Error), and
    # the S3 Z1 form at +-inf warned from np.tan before it was refused
    rule = "must" if isinstance(x, float) else "is too large for a float"
    form = H3.axial_solution(0.7, 1.3, Z1)
    for method in (form.evaluate, form.evaluate_with_derivs):
        with pytest.raises(EvaluationDomain, match=f"^x {rule}"):
            method(x)
    for method in (form.value_y, form.derivs_y):
        with pytest.raises(EvaluationDomain, match=f"^y {rule}"):
            method(x)
    s3_form = S3.axial_solution(P_S3, LAM_S3, Z1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in (s3_form.evaluate, s3_form.evaluate_with_derivs):
            with pytest.raises(EvaluationDomain, match=f"^x {rule}"):
                method(x)
    for rec in (H3, S3):
        for call in (rec.mu, rec.mu_prime,
                     lambda r, m, B: rec.radial_potential(r, m, B, R1)):
            with pytest.raises(DomainError, match=f"^r {rule}"):
                call(x, 0.5, 1.0)


def _radial(rec, B):
    """The R1 form of level n = 1 at two_m = 1 and B."""
    entry = rec.quantize(1, B, 1, R1)
    return rec.radial_solution(1, B, entry.lambda_sq, R1, entry.variant)


_S3_Z = (-math.pi / 2, math.pi / 2)


@pytest.mark.parametrize("form, x, ends", [
    (lambda: S3.axial_solution(P_S3, LAM_S3, Z1), 2.0, _S3_Z),
    (lambda: S3.axial_solution(P_S3, LAM_S3, Z1), [0.0, -2.0], _S3_Z),
    (lambda: _radial(S3, 1.0), 4.0, (0.0, math.pi)),
    (lambda: _radial(S3, 1.0), -0.5, (0.0, math.pi)),
    (lambda: _radial(H3, 5.0), [1.0, -0.5], (0.0, 20.0)),
], ids=["s3-z-2", "s3-z--2", "s3-r-4", "s3-r--0.5", "h3-r--0.5"])
def test_a_coordinate_outside_its_space_is_refused(form, x, ends):
    # the S3 Z1 form returned -0.49+0.97j at z = 2 > pi/2, and the S3 R1
    # form at r = 4 its mirror value at 2 pi - 4
    form = form()
    for method in (form.evaluate, form.evaluate_with_derivs):
        with pytest.raises(EvaluationDomain, match=r"^x must be finite and lie in \["):
            method(x)
    # the range is closed: its ends are evaluated
    assert np.isfinite(form.evaluate(list(ends))).all()
