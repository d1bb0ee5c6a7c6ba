"""Non-terminating axial forms near y = 1: the 1-y connection path of
SolutionForm against mpmath, its seam with the direct series, and the
typed failure at the ends of the line."""

import math

import mpmath
import numpy as np
import pytest

import curved_landau.hyp2f1 as hyp
from curved_landau import checks
from curved_landau.hyp2f1 import KummerBranch
from curved_landau.lobachevsky import h3_axial_solution, h3_quantize
from curved_landau.model import Component, EvaluationDomain, SolutionForm, Variable

_DPS = 30
_TOL = 1e-12
# the z of the split y = 0.9 on y = (1 + tanh z)/2
_Z_SPLIT = math.atanh(2 * hyp._CONNECTION_SPLIT - 1)
_ZS = np.concatenate([np.linspace(-10.0, 10.0, 21),
                      [_Z_SPLIT - 1e-9, _Z_SPLIT + 1e-9, 2.5, 4.0]])


def _axial_cases():
    """(B, n, lam, p) for every n < ceil(B), B in {2, 3.5, 5}: lam from
    the R1 level at two_m = -1 where admissible (the larger lam), else
    +1; p drawn from [0.2, 2]."""
    rng = np.random.default_rng(20261017)
    cases = []
    for B in (2.0, 3.5, 5.0):
        for n in range(math.ceil(B)):
            entry = h3_quantize(-1, B, n, Component.R1)
            if not entry.admissible:
                entry = h3_quantize(1, B, n, Component.R1)
            assert entry.admissible
            cases.append((B, n, math.sqrt(entry.lambda_sq),
                           float(rng.uniform(0.2, 2.0))))
    return cases


def _reference(form, zs):
    """(G, dG/dz, d2G/dz2) of G = y^A (1-y)^C F(a,b;c;y) in mpmath, with
    F' and F'' from 2F1 at shifted parameters and the z-derivatives of
    the prefactor written out: P' = P q with q = 2(A(1-y) - C y)."""
    out = []
    with mpmath.workdps(_DPS):
        a, b, c = (mpmath.mpc(v.real, v.imag)
                   for v in (form.params.a, form.params.b, form.params.c))
        A, C = mpmath.mpmathify(form.exp_a), mpmath.mpmathify(form.exp_c)
        for z in zs:
            z = mpmath.mpf(float(z))
            y, w = 1 / (1 + mpmath.exp(-2 * z)), 1 / (1 + mpmath.exp(2 * z))
            y1 = 2 * y * w
            y2 = 2 * y1 * (w - y)
            f0 = mpmath.hyp2f1(a, b, c, y)
            f1 = a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, y)
            f2 = (a * (a + 1) * b * (b + 1) / (c * (c + 1))
                  * mpmath.hyp2f1(a + 2, b + 2, c + 2, y))
            pref = mpmath.power(y, A) * mpmath.power(w, C)
            q = 2 * (A * w - C * y)
            fz, fzz = f1 * y1, f2 * y1 ** 2 + f1 * y2
            out.append([complex(pref * f0),
                        complex(pref * (q * f0 + fz)),
                        complex(pref * ((q * q - 2 * (A + C) * y1) * f0
                                        + 2 * q * fz + fzz))])
    return np.array(out).T


# (B, n, lam, p) at large p, where the numerators c +- i lam of the
# forms before Euler's transformation grew with p and their sums lost
# every digit by p = 100; B and n are not used
_LARGE_P = [(None, None, lam, p) for p in (10.0, 30.0, 100.0)
            for lam in (0.4, 1.3, 4.9)]


@pytest.mark.parametrize("B, n, lam, p", _axial_cases() + _LARGE_P)
def test_h3_axial_forms_match_mpmath_on_the_whole_window(B, n, lam, p):
    for branch in (KummerBranch.U1, KummerBranch.U5):
        for component in (Component.Z1, Component.Z2):
            form = h3_axial_solution(p, lam, branch, component)
            got = form.evaluate_with_derivs(_ZS)
            ref = _reference(form, _ZS)
            for k in range(3):
                err = np.max(np.abs(got[k] - ref[k])) / np.max(np.abs(ref[k]))
                assert err <= _TOL, (branch, component, k, err)
            assert np.allclose(form.evaluate(_ZS), got[0], rtol=0, atol=1e-15
                               * np.max(np.abs(ref[0])))


# 86 points on |z| <= 10 and 16 more on the Taylor discs' band
# 1/2 < y <= 0.9
_ZS_DISCS = np.concatenate([np.linspace(-10.0, 10.0, 86),
                            np.arctanh(2 * np.linspace(0.5, 0.9, 17)[1:] - 1)])


@pytest.mark.parametrize("B, n, lam, p", _axial_cases())
def test_h3_axial_forms_match_mpmath_through_the_taylor_discs(B, n, lam, p):
    for branch in (KummerBranch.U1, KummerBranch.U5):
        for component in (Component.Z1, Component.Z2):
            form = h3_axial_solution(p, lam, branch, component)
            got = form.evaluate_with_derivs(_ZS_DISCS)
            ref = _reference(form, _ZS_DISCS)
            for k in range(3):
                err = np.max(np.abs(got[k] - ref[k])) / np.max(np.abs(ref[k]))
                assert err <= 2.2e-13, (branch, component, k, err)


@pytest.mark.parametrize("branch", [KummerBranch.U1, KummerBranch.U5])
@pytest.mark.parametrize("component", [Component.Z1, Component.Z2])
def test_connection_joins_the_direct_series_at_the_split(branch, component):
    # y = split is summed directly, one ulp above through the 1-y basis
    ys = np.array([hyp._CONNECTION_SPLIT, np.nextafter(hyp._CONNECTION_SPLIT, 1.0)])
    for p, lam in ((0.3, 2.0), (1.7, 4.9)):
        form = h3_axial_solution(p, lam, branch, component)
        for below, above in zip(*(np.array(form.derivs_y(ys)).T)):
            assert abs(below - above) <= _TOL * max(abs(below), abs(above))


@pytest.mark.parametrize("params", [
    hyp.Hyp2F1Params(1.3, 0.4 + 0.2j, 0.3),   # c - a = -1: to_u2 = 0
    hyp.Hyp2F1Params(0.5, 0.5, 2.0),          # c - a - b = 1: direct series
])
def test_edge_parameters_fall_back_or_drop_a_term(params):
    form = SolutionForm(0.0, 0.0, params, Variable.YZ)
    ys = np.array([0.5, 0.95, 0.99 + 0.01j])
    a, b, c = (mpmath.mpmathify(v) for v in (params.a, params.b, params.c))
    with mpmath.workdps(_DPS):
        ref = [complex(mpmath.hyp2f1(a, b, c, mpmath.mpmathify(y))) for y in ys]
    assert np.allclose(form.value_y(ys), ref, rtol=1e-12, atol=0)


def test_no_check_comes_near_the_series_cap(monkeypatch):
    monkeypatch.setattr(hyp, "_SERIES_CAP", hyp._SERIES_CAP // 10)
    results = checks.run_suites(["all"])
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_one_minus_y_keeps_relative_precision_on_yz():
    # y, 1 - y, and log y and log(1 - y), which make the axial prefactor,
    # each to its own relative precision (the exact logs are taken as
    # -log1p(e^-+2z): 1 + e^-60 keeps only 3 digits of e^-60 at 30)
    zs = np.array([-30.0, -10.0, 0.0, 10.0, 30.0])
    y, w, (log_y, log_w) = Variable.YZ.y_pair(zs)
    with mpmath.workdps(_DPS):
        for z, yi, wi, lyi, lwi in zip(zs, y, w, log_y, log_w):
            z = mpmath.mpf(z)
            exact_y, exact_w = 1 / (1 + mpmath.exp(-2 * z)), 1 / (1 + mpmath.exp(2 * z))
            for got, exact in ((yi, exact_y), (wi, exact_w)):
                assert abs(got - float(exact)) <= 4e-16 * float(exact)
            for got, exact in ((lyi, -mpmath.log1p(mpmath.exp(-2 * z))),
                               (lwi, -mpmath.log1p(mpmath.exp(2 * z)))):
                assert abs(got - float(exact)) <= 4e-16 * abs(float(exact))


def test_far_ends_of_the_line_raise_instead_of_nan():
    form = h3_axial_solution(0.7, 1.3, KummerBranch.U1, Component.Z1)
    g = form.evaluate(np.array([-300.0, 30.0, 300.0]))
    assert np.all(np.isfinite(g))
    with pytest.raises(EvaluationDomain):
        form.evaluate(np.array([0.0, 400.0]))     # 1 - y underflows to 0
    with pytest.raises(EvaluationDomain):
        form.evaluate_with_derivs(np.array([-400.0, 0.0]))   # y underflows


@pytest.mark.parametrize("z", [178.0, 300.0, -178.0, -300.0])
def test_derivatives_refuse_where_y_squared_underflows(z):
    # y or 1 - y is below 1.5e-154 here, so y^2 leaves the normal floats;
    # the kernel's F' and F'' stay finite and the form's second derivative
    # overflows, instead of summing NaN steps up to the series cap
    form = h3_axial_solution(0.7, 1.3, KummerBranch.U1, Component.Z1)
    with pytest.raises(EvaluationDomain):
        form.evaluate_with_derivs(np.array([z]))
