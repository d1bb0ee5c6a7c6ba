"""The axial forms' prefactor exp(A log y + C log(1 - y)) from each axial
map's closed-form logs: accuracy against mpmath on both spaces, the 2F1
factor's bits at YZ's float y, and the ends of the coordinate lines."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from curved_landau.hyp2f1 import (Hyp2F1Params, KummerBranch, eval_2f1,
                                  series_with_derivatives)
from curved_landau.lobachevsky import h3_axial_solution
from curved_landau.model import Component, EvaluationDomain, SolutionForm, Variable
from curved_landau.spherical import s3_axial_quantize, s3_axial_solution

_DPS = 30
_H3_ZS = np.linspace(-4.0, 4.0, 33)
_S3_ZS = np.linspace(-(math.pi / 2 - 0.01), math.pi / 2 - 0.01, 33)


def _y_h3(z):
    """(y, 1 - y, dy/dz, d2y/dz2) of y = 1/(1 + e^-2z), 1 - y formed apart."""
    y, w = 1 / (1 + mpmath.exp(-2 * z)), 1 / (1 + mpmath.exp(2 * z))
    return y, w, 2 * y * w, 4 * y * w * (w - y)


def _y_s3(z):
    """(y, 1 - y, dy/dz, d2y/dz2) of y = (1 + i tan z)/2."""
    t, sec2 = mpmath.tan(z), 1 / mpmath.cos(z) ** 2
    return (1 + 1j * t) / 2, (1 - 1j * t) / 2, 0.5j * sec2, 1j * t * sec2


def _exact(v, terminating):
    """v in mpmath; a terminating parameter as its exact non-positive
    integer, so mpmath sums the same polynomial."""
    k = round(v.real)
    if terminating and abs(v.imag) <= 1e-12 and k <= 0 and abs(v.real - k) <= 1e-12:
        return mpmath.mpf(k)
    return mpmath.mpc(v.real, v.imag)


def _reference(form, zs, y_map):
    """(G, G', G'') of G = P F, P = y^A (1-y)^C, in mpmath: F' and F'' from
    2F1 at shifted parameters, P' = P q with q = y'(A/y - C/w) and
    q' = y''(A/y - C/w) - y'^2 (A/y^2 + C/w^2)."""
    out = []
    with mpmath.workdps(_DPS):
        term = form.params.terminating
        a, b, c = (_exact(v, term) for v in (form.params.a, form.params.b, form.params.c))
        A, C = mpmath.mpmathify(form.exp_a), mpmath.mpmathify(form.exp_c)
        for z in zs:
            y, w, y1, y2 = y_map(mpmath.mpf(float(z)))
            f0 = mpmath.hyp2f1(a, b, c, y)
            f1 = a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, y)
            f2 = (a * (a + 1) * b * (b + 1) / (c * (c + 1))
                  * mpmath.hyp2f1(a + 2, b + 2, c + 2, y))
            pref = mpmath.power(y, A) * mpmath.power(w, C)
            r = A / y - C / w
            q, dq = y1 * r, y2 * r - y1 ** 2 * (A / y ** 2 + C / w ** 2)
            out.append([complex(pref * f0),
                        complex(pref * (q * f0 + f1 * y1)),
                        complex(pref * ((q * q + dq) * f0 + 2 * q * f1 * y1
                                        + f2 * y1 ** 2 + f1 * y2))])
    return np.array(out).T


def _h3_forms():
    for lam in (1.3, 3.0, 10.0):
        for p in (0.2, 0.7, 2.0, 10.0):
            for branch in (KummerBranch.U1, KummerBranch.U5):
                for component in (Component.Z1, Component.Z2):
                    yield component, h3_axial_solution(p, lam, branch, component)


def _s3_forms():
    for lam in (0.4, math.sqrt(3.0), 4.5):
        for n_z in range(10):
            for component in (Component.Z1, Component.Z2):
                yield component, s3_axial_solution(s3_axial_quantize(lam, n_z), lam,
                                                   component)


def _worst(forms, zs, y_map):
    """Per component, the worst over forms of max |got - ref| / max |ref|
    for G, G' and G''."""
    worst = {}
    for component, form in forms:
        got, ref = form.evaluate_with_derivs(zs), _reference(form, zs, y_map)
        errs = [np.max(np.abs(got[k] - ref[k])) / np.max(np.abs(ref[k])) for k in range(3)]
        worst[component] = np.maximum(worst.get(component, 0.0), errs)
    return worst


# The worst of each (component, derivative) over the sweep when the
# prefactor was y ** A * (1 - y) ** C, two complex powers at complex y,
# rounded up at the third digit: 2F1's error sets them, and the
# prefactor's own rounding moves each by a few 1e-16 either way.
_WORST_WITH_POWERS = {
    "h3": {Component.Z1: (1.88e-12, 1.84e-11, 1.35e-10),
           Component.Z2: (1.88e-12, 1.84e-11, 1.35e-10)},
    "s3": {Component.Z1: (1.22e-11, 4.06e-12, 3.25e-12),
           Component.Z2: (2.33e-12, 1.58e-12, 1.52e-12)},
}


@pytest.mark.parametrize("space, forms, zs, y_map", [
    ("h3", _h3_forms, _H3_ZS, _y_h3),
    ("s3", _s3_forms, _S3_ZS, _y_s3),
])
def test_axial_forms_are_no_less_accurate_than_with_complex_powers(space, forms, zs, y_map):
    # H3: lam in {1.3, 3, 10}, p in {0.2, 0.7, 2, 10}, both Kummer
    # branches, |z| <= 4; S3: lam in {0.4, sqrt 3, 4.5}, n_z <= 9, |z| up
    # to pi/2 - 0.01; G, G' and G'' against mpmath at 30 digits
    worst = _worst(forms(), zs, y_map)
    for component, bounds in _WORST_WITH_POWERS[space].items():
        for k, (err, bound) in enumerate(zip(worst[component], bounds)):
            assert err <= bound, (space, component, k, err, bound)


_ONE = Hyp2F1Params(0.0, 0.0, 1.0)  # F = 1: the form is its prefactor


@pytest.mark.parametrize("variable, exponents, zs, y_map", [
    (Variable.YZ,
     [((1 + 1j * p) / 2, (1 - 1j * p) / 2) for p in (0.2, 0.7, 2.0, 10.0, -0.7)]
     + [(0.5j * p, -0.5j * p) for p in (0.2, 0.7, 2.0, 10.0)],
     np.concatenate([np.linspace(-30.0, 30.0, 61), [-300.0, 300.0]]),
     lambda z: _y_h3(z)[:2]),
    (Variable.YZ_S3,
     [e for p in (0.9, 4.2, 14.0) for e in (((1 - p) / 2, -p / 2), (-p / 2, (1 - p) / 2))],
     np.concatenate([np.linspace(-(math.pi / 2 - 0.01), math.pi / 2 - 0.01, 41),
                     [s * (math.pi / 2 - d) for s in (1, -1) for d in (1e-5, 1e-9, 0.0)]]),
     lambda z: _y_s3(z)[:2]),
])
def test_prefactor_is_as_accurate_as_exp_allows(variable, exponents, zs, y_map):
    # exp(A log y + C log(1 - y)) of the map's closed-form logs: at each
    # point within 2 ulp of the exponent's size, 1 + |A log y| + |C log(1 - y)|,
    # the conditioning of exp, of y^A (1 - y)^C at 40 digits; the H3
    # exponents of both Kummer branches to |z| = 300, the S3 ones at
    # p = 0.9, 4.2 and 14 up to the poles
    with mpmath.workdps(40):
        for A, C in exponents:
            got = SolutionForm(A, C, _ONE, variable).evaluate(zs)
            for z, g in zip(zs, got):
                y, w = y_map(mpmath.mpf(float(z)))
                exact = mpmath.power(y, A) * mpmath.power(w, C)
                size = 1 + abs(A * mpmath.log(y)) + abs(C * mpmath.log(w))
                assert abs(g - complex(exact)) <= 2 * 2.0 ** -52 * float(size * abs(exact)), \
                    (A, C, z)


def test_f_has_the_same_bits_at_yz_float_y_as_at_complex_y():
    # YZ's y and 1 - y are float64; the kernel casts them to complex
    # before any non-terminating sum, so F, F' and F'' of every H3 axial
    # form of the sweep keep the bits of the complex call, by the direct
    # series, the Taylor discs and the connection past y = 0.9 (Re y > 0
    # on YZ: Pfaff's map never)
    zs = np.concatenate([np.linspace(-4.0, 4.0, 57), [0.3, 1.7]])
    y, w, _ = Variable.YZ.y_pair(zs)
    for _, form in _h3_forms():
        for got, want in ((series_with_derivatives(form.params, y, w),
                           series_with_derivatives(form.params, y + 0j, w + 0j)),
                          ((eval_2f1(form.params, y, w),), (eval_2f1(form.params, y + 0j, w + 0j),))):
            for g, h in zip(got, want):
                assert g.dtype == h.dtype == complex
                assert np.array_equal(g.view(np.uint64), h.view(np.uint64))
        for i in (0, 28):  # one point at a time, as _one_point takes it
            one = series_with_derivatives(form.params, y[i], w[i])
            assert one == series_with_derivatives(form.params, complex(y[i]), complex(w[i]))


# How each call ended with the prefactor y ** A * (1 - y) ** C, at the ends
# of YZ: values to |z| = 300 (derivatives past |z| ~ 178, where y^2 or
# (1 - y)^2 underflows, raise "not representable"); at z = 400, 1 - y is
# 0 under a non-terminating series; at z = -400, y is 0, and the value is
# numpy's 0 ** A times F(0) = 1: 0 where Re A = 1/2 (the upper form), 1
# where A = 0 (p = 0), "not representable" where A = i p/2.
_NOT_REPRESENTABLE, _SINGULAR = "form value or derivative not representable", "1 - y underflows"
_H3_ENDS = {30.0: (None, None), -30.0: (None, None),
            300.0: (None, _NOT_REPRESENTABLE), -300.0: (None, _NOT_REPRESENTABLE),
            400.0: (_SINGULAR, _SINGULAR)}


def _ends(form, zs, outcomes):
    """Each of evaluate and evaluate_with_derivs at each z ends as outcomes
    says: None, values (finite, the same value from both where both
    return); else EvaluationDomain with that message. No RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for z in zs:
            values = []
            for method, outcome in zip((form.evaluate, form.evaluate_with_derivs), outcomes[z]):
                if outcome is None:
                    got = np.ravel(method(np.array([z])))
                    assert np.all(np.isfinite(got)), (z, method)
                    values.append(got[0])
                else:
                    with pytest.raises(EvaluationDomain, match=outcome):
                        method(np.array([z]))
            if len(values) == 2:
                assert values[0] == values[1], z


@pytest.mark.parametrize("p", [0.7, 0.0])
@pytest.mark.parametrize("branch", [KummerBranch.U1, KummerBranch.U5])
@pytest.mark.parametrize("component", [Component.Z1, Component.Z2])
def test_yz_ends_end_as_with_complex_powers(p, branch, component):
    form = h3_axial_solution(p, 1.3, branch, component)
    A = form.exp_a
    zero_y = 0.0 if A.real == 0.5 else 1.0 if A == 0 else None
    outcomes = {**_H3_ENDS, -400.0: (None if zero_y is not None else _NOT_REPRESENTABLE,
                                     _NOT_REPRESENTABLE)}
    _ends(form, list(outcomes), outcomes)
    if zero_y is not None:
        assert form.evaluate(np.array([-400.0]))[0] == zero_y
    # where both ends hold a value, it is y^A (1 - y)^C F at 330 digits,
    # enough for 1 - y = e^-600
    zs = np.array([30.0, -30.0, 300.0, -300.0])
    with mpmath.workdps(330):
        exact = []
        for z in zs:
            y, w = _y_h3(mpmath.mpf(z))[:2]
            a, b, c = (mpmath.mpc(v.real, v.imag) for v in
                       (form.params.a, form.params.b, form.params.c))
            exact.append(complex(mpmath.power(y, form.exp_a) * mpmath.power(w, form.exp_c)
                                 * mpmath.hyp2f1(a, b, c, y)))
    got = form.evaluate(zs)
    assert np.all(np.abs(got - exact) <= 1e-13 * np.abs(exact)), (got, exact)


@pytest.mark.parametrize("lam, n_z", [(0.4, 0), (0.4, 5), (4.5, 0), (4.5, 9)])
@pytest.mark.parametrize("component", [Component.Z1, Component.Z2])
def test_yz_s3_poles_end_as_with_complex_powers(lam, n_z, component):
    # every call holds values at and next to the poles, where cos z
    # (6.1e-17 at the float pi/2) is not 0
    form = s3_axial_solution(s3_axial_quantize(lam, n_z), lam, component)
    zs = [s * (math.pi / 2 - d) for s in (1, -1) for d in (1e-9, 0.0)]
    _ends(form, zs, {z: (None, None) for z in zs})
