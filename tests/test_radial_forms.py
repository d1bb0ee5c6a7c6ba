"""Radial solution forms and both r-derivatives against mpmath.

The reference builds each form from its own closed form at 40 digits,
y^A (1-y)^C F(a, b; c; y) with y = (1 + cosh r)/2 on H3 and
(1 + cos r)/2 on S3, and takes the r-derivatives by mpmath's numerical
differentiation, so it shares neither the half-angle maps nor the chain
rule with the code it checks. The points include the `wavefunction`
window ends next to the poles, r = 1e-3 on both spaces and r = pi - 1e-3
on S3, where forming 1 - y by cancellation cost F'' up to 1.1e-9 of its
sup (h3 B=5, two_m=1, n=2) and 5.9e-11 (s3 B=1, two_m=1, n=3).

At r = 0 (w = 0) a form goes as r^(2C) times a smooth function of r^2,
so its j-th r-derivative tends to 0 where 2C > j and is unbounded where
2C < j; the lattice has 2C = 1/2 mod 1. The value G that
evaluate_with_derivs returns is evaluate's on every map.
"""

import math

import mpmath
import numpy as np
import pytest

from curved_landau import spherical
from curved_landau.model import Component, EvaluationDomain, Geometry

_R_MAX = {"h3": 12.0, "s3": math.pi - 1e-3}
_COSINE = {"h3": mpmath.cosh, "s3": mpmath.cos}


def _exact(v: complex):
    """A real parameter as mpmath takes it: a terminating numerator as the
    exact non-positive integer it lies within 1e-12 of."""
    k = round(v.real)
    if k <= 0 and abs(v.real - k) <= 1e-12:
        return mpmath.mpf(k)
    return mpmath.mpf(v.real)


def _reference(form, model, xs):
    """(G, G', G'') of the form at xs, at 40 digits."""
    a, b, c = (_exact(v) for v in (form.params.a, form.params.b, form.params.c))
    A, C = mpmath.mpf(form.exp_a), mpmath.mpf(form.exp_c)
    cosine = _COSINE[model]
    with mpmath.workdps(40):
        def g(r):
            y = (1 + cosine(r)) / 2
            return (mpmath.power(y, A) * mpmath.power(mpmath.mpc(1 - y), C)
                    * mpmath.hyp2f1(a, b, c, y))
        rows = [mpmath.taylor(g, mpmath.mpf(float(x)), 2) for x in xs]
        return np.array([[complex(g0), complex(g1), complex(2 * g2)]
                         for g0, g1, g2 in rows]).T


@pytest.mark.parametrize("model, B", [("h3", 2.5), ("h3", 5.0), ("h3", -5.0),
                                      ("s3", 1.0), ("s3", 2.5), ("s3", -2.5)])
def test_radial_forms_and_r_derivatives_match_mpmath(model, B):
    # two_m in {-5, -1, 1, 3, 7}, R1 and R2, n <= 3; the change to the
    # half-angle maps read <= 5.0e-14 of the sup here
    rec = Geometry(model).record
    hi = _R_MAX[model]
    xs = np.concatenate([[1e-3, 2e-3, 1e-2], np.linspace(0.05, hi, 12)])
    count = 0
    for two_m in (-5, -1, 1, 3, 7):
        for component in (Component.R1, Component.R2):
            for n in range(4):
                entry = rec.quantize(two_m, B, n, component)
                if not entry.admissible:
                    continue
                form = rec.radial_solution(two_m, B, entry.lambda_sq, component,
                                           entry.variant)
                got = form.evaluate_with_derivs(xs)
                exact = _reference(form, model, xs)
                for j in range(3):
                    assert got[j].dtype == np.complex128
                    err = np.max(np.abs(got[j] - exact[j])) / np.max(np.abs(exact[j]))
                    assert err <= 1e-13, (two_m, component, n, j, err)
                count += 1
    assert count >= 16


def _bound_state(model, B, two_m, n, component):
    rec = Geometry(model).record
    entry = rec.quantize(two_m, B, n, component)
    return rec.radial_solution(two_m, B, entry.lambda_sq, component, entry.variant)


@pytest.mark.parametrize("model, B, two_m, n, component, C", [
    ("s3", 2.5, 7, 1, Component.R1, 1.75),
    ("h3", 5.0, -5, 0, Component.R2, 1.25)])
def test_r_derivatives_at_r_0_are_their_limit_0_where_2c_exceeds_2(
        model, B, two_m, n, component, C):
    form = _bound_state(model, B, two_m, n, component)
    assert form.exp_c == C
    xs = np.array([0.3, 0.0, 1.0])
    got = form.evaluate_with_derivs(xs)
    interior = form.evaluate_with_derivs(xs[[0, 2]])
    for j in range(3):
        assert got[j][1] == 0
        # the other points are untouched
        assert np.array_equal(got[j][[0, 2]], interior[j])
    assert all(g == 0 for g in form.evaluate_with_derivs(0.0))


@pytest.mark.parametrize("model, B, two_m, n, component, C", [
    ("s3", 1.0, 1, 3, Component.R1, 0.25),   # G' and G'' unbounded
    ("h3", 5.0, 1, 2, Component.R1, 0.25),
    ("s3", 2.5, 3, 1, Component.R1, 0.75),   # G' -> 0, G'' unbounded
    ("h3", 5.0, 3, 1, Component.R1, 0.75)])
def test_r_derivatives_at_r_0_raise_where_one_is_unbounded(
        model, B, two_m, n, component, C):
    form = _bound_state(model, B, two_m, n, component)
    assert form.exp_c == C
    assert np.isfinite(form.evaluate_with_derivs(np.array([0.3]))).all()
    with pytest.raises(EvaluationDomain):
        form.evaluate_with_derivs(np.array([0.3, 0.0]))


def test_evaluate_with_derivs_returns_the_value_of_evaluate():
    # bit for bit on both radial maps, R1 and R2, and on both axial maps
    # (the CLI goldens pin evaluate on all four). On the H3 axial map the
    # series is cut to the degree its derivatives need, with F's row
    # zeroed past F's own cut, so G is evaluate's there too.
    count = 0
    for model, B in (("h3", 5.0), ("s3", 2.5)):
        rec = Geometry(model).record
        xs = np.linspace(1e-3, _R_MAX[model], 300)
        for two_m in (-5, -1, 1, 3, 7):
            for component in (Component.R1, Component.R2):
                for n in range(4):
                    entry = rec.quantize(two_m, B, n, component)
                    if not entry.admissible:
                        continue
                    form = rec.radial_solution(two_m, B, entry.lambda_sq,
                                               component, entry.variant)
                    got = form.evaluate_with_derivs(xs)[0]
                    assert np.array_equal(got.view(float), form.evaluate(xs).view(float))
                    count += 1
    s3 = Geometry.S3.record
    zs = np.linspace(-(math.pi / 2 - 0.1), math.pi / 2 - 0.1, 301)
    for lam in (1.5, 2.5):
        for n_z in range(4):
            p = spherical.s3_axial_quantize(lam, n_z)
            for component in (Component.Z1, Component.Z2):
                form = s3.axial_solution(p, lam, component)
                got = form.evaluate_with_derivs(zs)[0]
                assert np.array_equal(got.view(float), form.evaluate(zs).view(float))
                count += 1
    assert count >= 40
    h3 = Geometry.H3.record
    zs = np.linspace(-3.0, 3.0, 301)
    for p, lam in ((0.7, 1.3), (0.1, 0.5), (2.0, 3.0)):
        for component in (Component.Z1, Component.Z2):
            form = h3.axial_solution(p, lam, component)
            got = form.evaluate_with_derivs(zs)[0]
            assert np.array_equal(got.view(float), form.evaluate(zs).view(float))
