"""Radial solution forms and both r-derivatives against mpmath.

The reference builds each form from its own closed form at 40 digits,
y^A (1-y)^C F(a, b; c; y) with y = (1 + cosh r)/2 on H3 and
(1 + cos r)/2 on S3, and takes the r-derivatives by mpmath's numerical
differentiation, so it shares neither the half-angle maps nor the chain
rule with the code it checks. The points include the `wavefunction`
window ends next to the poles, r = 1e-3 on both spaces and r = pi - 1e-3
on S3, where forming 1 - y by cancellation cost F'' up to 1.1e-9 of its
sup (h3 B=5, two_m=1, n=2) and 5.9e-11 (s3 B=1, two_m=1, n=3).
"""

import math

import mpmath
import numpy as np
import pytest

from curved_landau.model import Component, Geometry

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
