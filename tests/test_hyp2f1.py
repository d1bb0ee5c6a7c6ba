"""Series engine: values, termination, gamma, connection, contiguity."""

import cmath
import itertools
import math

import numpy as np
import pytest
import mpmath
import scipy.special
from hypothesis import example, given, settings, strategies as st

from curved_landau import checks, hyp2f1 as hyp
from curved_landau.hyp2f1 import (
    DegenerateConnection,
    Hyp2F1Error,
    Hyp2F1Params,
    InvalidC,
    NonConvergent,
    eval_2f1,
    kummer_connection,
    log_gamma,
    series_with_derivatives,
    u2_value,
    u6_value,
)
from curved_landau.model import Component, Geometry, SolutionForm, Variable
from curved_landau.spherical import s3_axial_quantize


def _far_from_int(x: float, gap: float = 0.15) -> bool:
    return abs(x - round(x)) >= gap


# ---------------------------------------------------------------------------
# Point values and series mechanics
# ---------------------------------------------------------------------------


def test_logarithm_series_value():
    # F(1,1,2;y) = -log(1-y)/y
    val = eval_2f1(Hyp2F1Params(1.0, 1.0, 2.0), 0.5)
    assert abs(val - 2.0 * math.log(2.0)) < 1e-14


def test_binomial_series_value():
    # F(a,b,b;y) = (1-y)^(-a) for any b (here non-terminating)
    val = eval_2f1(Hyp2F1Params(0.75, 2.0, 2.0), 0.3 + 0.1j)
    assert abs(val - (1 - (0.3 + 0.1j)) ** -0.75) < 1e-14


def test_terminating_series_is_polynomial_everywhere():
    params = Hyp2F1Params(-2.0, 1.5, 0.5, )
    assert params.terminating and params.degree == 2
    y = 7.0 + 3.0j  # far outside the unit disk: polynomials do not care
    a, b, c = -2.0, 1.5, 0.5
    direct = 1 + a * b / c * y + a * (a + 1) * b * (b + 1) / (c * (c + 1)) / 2 * y**2
    assert abs(eval_2f1(params, y) - direct) < 1e-13 * abs(direct)


def test_non_terminating_outside_disk_rejected():
    with pytest.raises(NonConvergent):
        eval_2f1(Hyp2F1Params(0.5, 0.7, 1.9), 1.0)
    with pytest.raises(NonConvergent):
        series_with_derivatives(Hyp2F1Params(0.5, 0.7, 1.9), 1.2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("y", [1e200, -1e200, 1e300 + 1e300j, 1.0])
@pytest.mark.parametrize("entry", [eval_2f1, series_with_derivatives])
def test_far_points_are_refused_by_name_in_any_shape(entry, y):
    # |w|^2 of a far point overflows; it must read as outside the disc,
    # alone (0-d or one element) as inside an array, never as a bare
    # OverflowError
    params = Hyp2F1Params(0.3 + 0.1j, 1.2, 2.5)
    for ys in (y, np.array(y), np.array([y]), np.array([0.1, 0.3j, y, -0.2, 0.5])):
        with pytest.raises(NonConvergent):
            entry(params, ys)


def test_invalid_c_rules():
    with pytest.raises(InvalidC):
        Hyp2F1Params(1.0, 2.0, 0.0)
    with pytest.raises(InvalidC):
        Hyp2F1Params(0.5, 2.0, -3.0)
    # termination strictly before the vanishing denominator is fine
    params = Hyp2F1Params(-1.0, 5.0, -2.0)
    val = eval_2f1(params, 0.4)
    assert abs(val - (1 + (-1.0) * 5.0 / (-2.0) * 0.4)) < 1e-14


def test_non_finite_rejected():
    with pytest.raises(Hyp2F1Error):
        Hyp2F1Params(float("nan"), 1.0, 2.0)
    with pytest.raises(Hyp2F1Error):
        eval_2f1(Hyp2F1Params(1.0, 1.0, 2.0), float("inf"))


def test_series_derivatives_match_finite_differences():
    params = Hyp2F1Params(0.3 + 0.2j, -1.7, 1.1)
    y, h = 0.35 + 0.1j, 1e-4
    f0, f1, f2 = series_with_derivatives(params, y)
    fp = eval_2f1(params, y + h)
    fm = eval_2f1(params, y - h)
    assert abs(f1 - (fp - fm) / (2 * h)) < 1e-6
    assert abs(f2 - (fp - 2 * f0 + fm) / h**2) < 1e-5


def test_derivatives_at_zero_argument():
    params = Hyp2F1Params(0.7, 1.3, 2.1)
    f0, f1, f2 = series_with_derivatives(params, 0.0)
    a, b, c = 0.7, 1.3, 2.1
    assert abs(f0 - 1.0) < 1e-15
    assert abs(f1 - a * b / c) < 1e-15
    assert abs(f2 - a * (a + 1) * b * (b + 1) / (c * (c + 1))) < 1e-15


@pytest.mark.parametrize("params", [Hyp2F1Params(0.7, 1.3, 2.1),
                                    Hyp2F1Params(-3, 1.3, 2.1)])
def test_derivatives_where_y_squared_underflows(params):
    # below |y| = 1.5e-154, y^2 is subnormal; no sum divides by y, so
    # F' and F'' read the y = 0 limits to ~|y| there
    a, b, c = params.a, params.b, params.c
    ys = np.array([1e-300, -1e-200j, 1e-160, 1.4e-154])
    f0, f1, f2 = series_with_derivatives(params, ys)
    assert np.allclose(f0, 1.0, rtol=0, atol=1e-150)
    assert np.allclose(f1, a * b / c, rtol=1e-15, atol=0)
    assert np.allclose(f2, a * (a + 1) * b * (b + 1) / (c * (c + 1)),
                       rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# log Gamma
# ---------------------------------------------------------------------------


def test_log_gamma_known_values():
    assert abs(log_gamma(1.0)) < 1e-14
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14
    assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-13


def test_log_gamma_matches_reference_library():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        z = complex(rng.uniform(-100, 100), rng.uniform(-100, 100))
        if abs(z.imag) < 0.2 and z.real < 0.5:
            continue  # stay off the pole line / branch cut
        ref = scipy.special.loggamma(z)
        err = abs(log_gamma(z) - ref) / max(1.0, abs(ref))
        worst = max(worst, err)
    assert worst < 1e-13


def test_log_gamma_pole_rejected():
    from curved_landau.hyp2f1 import PoleAtNonPositiveInteger
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(PoleAtNonPositiveInteger):
            log_gamma(z)


# ---------------------------------------------------------------------------
# Connection to the y ~ 1 basis
# ---------------------------------------------------------------------------


def test_kummer_connection_reconstructs_series():
    params = Hyp2F1Params(0.4 + 0.3j, -0.6, 1.3 - 0.2j)
    y = 0.55 + 0.1j
    coeff = kummer_connection(params)
    joined = (coeff.to_u2 * u2_value(params, y)
              + coeff.to_u6 * u6_value(params, y))
    assert abs(eval_2f1(params, y) - joined) < 1e-12
    # array arguments give the scalar values, point by point
    ys = np.array([y, 0.3 - 0.2j, 0.9])
    for fn in (eval_2f1, u2_value, u6_value):
        loop = np.array([fn(params, v) for v in ys])
        assert np.allclose(fn(params, ys), loop, rtol=1e-15, atol=0)


def test_kummer_connection_denominator_pole_gives_zero():
    # c - a = -1 poles Gamma(c - a): F = to_u6 * U6 alone (Euler)
    params = Hyp2F1Params(1.3, 0.4 + 0.2j, 0.3)
    coeff = kummer_connection(params)
    assert coeff.to_u2 == 0
    y = 0.6 + 0.1j
    assert abs(eval_2f1(params, y) - coeff.to_u6 * u6_value(params, y)) < 1e-12


def test_degenerate_connection_rejected():
    # c - a - b exactly integer -> logarithmic case
    with pytest.raises(DegenerateConnection):
        kummer_connection(Hyp2F1Params(0.5, 0.5, 2.0))


# ---------------------------------------------------------------------------
# Property-based identities
# ---------------------------------------------------------------------------

_int_part = st.integers(min_value=-3, max_value=3)
_jitter = st.floats(min_value=-0.01, max_value=0.01)


@st.composite
def _safe_params(draw):
    # Fractional offsets chosen so that a, b, c and the derived
    # combinations c-a, c-b, c-a-b, a-b all stay at least 0.15 away
    # from the integers for every choice of integer part and jitter.
    a = draw(_int_part) + 0.20 + draw(_jitter)
    b = draw(_int_part) + 0.45 + draw(_jitter)
    c = draw(_int_part) + 0.83 + draw(_jitter)
    return Hyp2F1Params(a, b, c)


@st.composite
def _disc_y(draw, lens=False):
    if lens:
        # disk of radius 0.3 about 0.5: every point satisfies both
        # |y| <= 0.8 and |1 - y| <= 0.8, where all three series converge
        rho = draw(st.floats(min_value=0.0, max_value=0.3))
        centre = 0.5
    elif draw(st.booleans()):
        # near the real axis on 1/2 < Re y <= 0.9: the Taylor discs
        return complex(draw(st.floats(min_value=0.5, max_value=0.9, exclude_min=True)),
                       draw(st.floats(min_value=-0.05, max_value=0.05)))
    else:
        rho = draw(st.floats(min_value=0.05, max_value=0.7))
        centre = 0.0
    angle = draw(st.floats(min_value=0.0, max_value=2 * math.pi))
    return centre + rho * complex(math.cos(angle), math.sin(angle))


# At Re y < 0 the direct series has terms ~7e5 |F| here, so summed
# directly the c-lowering identity misses its 1e-9 bound (2e-9); the
# kernel takes Pfaff's transformation at Re y < 0.
_CANCELLING = (Hyp2F1Params(3.2, 3.45, -2.17),
               -0.6187453103752784 + 0.08820000503741701j)


@settings(max_examples=60, deadline=None)
@given(_safe_params(), _disc_y())
def test_argument_symmetry(params, y):
    swapped = Hyp2F1Params(params.b, params.a, params.c)
    f = eval_2f1(params, y)
    assert abs(f - eval_2f1(swapped, y)) <= 1e-13 * max(1.0, abs(f))


@settings(max_examples=60, deadline=None)
@given(_safe_params(), _disc_y())
def test_euler_transformation(params, y):
    a, b, c = params.a, params.b, params.c
    f = eval_2f1(params, y)
    g = (1 - y) ** (c - a - b) * eval_2f1(Hyp2F1Params(c - a, c - b, c), y)
    assert abs(f - g) <= 1e-9 * max(1.0, abs(f), abs(g))


@settings(max_examples=60, deadline=None)
@given(_safe_params(), _disc_y())
def test_contiguous_raise_identity(params, y):
    a, b, c = params.a, params.b, params.c
    f, fp, _ = series_with_derivatives(params, y)
    lhs = (c - a - b) * f + (1 - y) * fp
    rhs = ((a - c) * (b - c) / c) * eval_2f1(params.shifted(dc=1), y)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


@settings(max_examples=60, deadline=None)
@given(_safe_params(), _disc_y())
@example(*_CANCELLING)
def test_contiguous_lower_identity(params, y):
    a, b, c = params.a, params.b, params.c
    f, fp, _ = series_with_derivatives(params.shifted(dc=-1), y)
    lhs = (c - 1 - a - b) * f + (1 - y) * fp
    rhs = ((a - c + 1) * (b - c + 1) / (c - 1)) * eval_2f1(params, y)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


@settings(max_examples=60, deadline=None)
@given(_safe_params(), _disc_y(lens=True))
def test_two_term_recombination(params, y):
    f = eval_2f1(params, y)
    coeff = kummer_connection(params)
    t2 = coeff.to_u2 * u2_value(params, y)
    t6 = coeff.to_u6 * u6_value(params, y)
    assert abs(f - (t2 + t6)) <= 1e-9 * max(1.0, abs(f), abs(t2), abs(t6))


def test_pfaff_route_matches_reference_with_derivatives():
    # non-terminating sums at Re y < 0 go through Pfaff's transformation;
    # F, F' and F'' against mpmath, and an array mixing both half planes
    a, b, c = 3.2, 3.45, -2.17
    params = Hyp2F1Params(a, b, c)
    ys = [_CANCELLING[1], -0.3 + 0.2j, -0.69, -0.05 - 0.6j, 0.4 + 0.3j]
    with mpmath.workdps(30):
        for y in ys:
            got = series_with_derivatives(params, y)
            for k in range(3):
                ref = complex(mpmath.diff(
                    lambda t: mpmath.hyp2f1(a, b, c, t), y, k))
                assert abs(got[k] - ref) <= 1e-13 * abs(ref), (y, k)
    arr = series_with_derivatives(params, np.array(ys))
    for k in range(3):
        assert np.allclose(arr[k], [series_with_derivatives(params, y)[k]
                                    for y in ys], rtol=0, atol=0)


def _terminating_forms():
    """The 35 bound-state forms of the terminating sweep, each with its
    coordinate window: S3 axial Z1 at lambda = sqrt(3), n_z = 0..12; the
    admissible H3 R1 levels at two_m = 3, B = 20 and S3 R1 levels at
    two_m = 7, B = 2.5, n = 0..11."""
    s3, h3 = Geometry.S3.record, Geometry.H3.record
    lam = math.sqrt(3.0)
    for n_z in range(13):
        p = s3_axial_quantize(lam, n_z)
        yield s3.axial_solution(p, lam, Component.Z1), (-1.3, 1.3)
    for rec, two_m, B, window in ((h3, 3, 20.0, (1e-3, 6.0)),
                                  (s3, 7, 2.5, (1e-3, math.pi - 1e-3))):
        for n in range(12):
            entry = rec.quantize(two_m, B, n, Component.R1)
            if entry.admissible:
                yield (rec.radial_solution(two_m, B, entry.lambda_sq,
                                           Component.R1, entry.variant), window)


def _mp_polynomial(params, y):
    """(F, F', F'') of the terminating series at y in mpmath: the
    polynomial of degree params.degree in params' own (a, b, c), its
    coefficients (a)_k (b)_k / ((c)_k k!) from rising factorials."""
    a, b, c = (mpmath.mpmathify(v) for v in (params.a, params.b, params.c))
    f = [mpmath.rf(a, k) * mpmath.rf(b, k) / (mpmath.rf(c, k) * mpmath.factorial(k))
         for k in range(params.degree + 1)]
    out = []
    for _ in range(3):
        out.append(complex(mpmath.polyval(f[::-1], y) if f else 0))
        f = [k * fk for k, fk in enumerate(f)][1:]
    return out


def test_terminating_derivatives_match_mpmath_on_bound_states():
    # every bound state is a terminating 2F1; F, F' and F'' at each map's
    # own (y, 1 - y), 41 points per form, against the polynomial at 40
    # digits, relative to the sup over the form's points. The kernel
    # reads 2.61e-11, 6.76e-12 and 2.80e-12 at the half-angle radial
    # maps' points (3.36e-11, 6.76e-12 and 2.43e-12 at those of
    # (1 + cosh r)/2 and (1 + cos r)/2); sums that divide each term by y
    # and y^2 read 1.69e-11 for F' and 3.52e-12 for F''
    worst, count = [0.0] * 3, 0
    with mpmath.workdps(40):
        for form, (lo, hi) in _terminating_forms():
            count += 1
            y, w = form.variable.y_pair(np.linspace(lo, hi, 41))
            got = series_with_derivatives(form.params, y, w)
            exact = np.array([_mp_polynomial(form.params, mpmath.mpmathify(v))
                              for v in y]).T
            for j in range(3):
                scale = np.max(np.abs(exact[j]))
                worst[j] = max(worst[j], np.max(np.abs(got[j] - exact[j]))
                               / (scale if scale > 0 else 1.0))
    assert count == 35
    assert worst[0] <= 5e-11 and worst[1] <= 1e-11 and worst[2] <= 4e-12, worst


def test_real_terminating_sums_are_the_complex_sums_real_parts():
    # at a float y with real terminating parameters the kernel sums in
    # float64; it is the complex loop's own products and sums, so every
    # value equals the real part of the complex call exactly
    rng = np.random.default_rng(31)
    y = np.concatenate([rng.uniform(-3.0, 3.0, 300), rng.uniform(0.0, 1.0, 300),
                        np.cosh(rng.uniform(0.0, 6.0, 300) / 2) ** 2,
                        [0.0, 1.0, -1.0]])
    cases = [Hyp2F1Params(-float(rng.integers(0, 13)), rng.uniform(-12.0, 12.0),
                          rng.uniform(0.1, 12.0)) for _ in range(40)]
    cases += [form.params for form, _ in _terminating_forms()
              if form.variable in (Variable.YR, Variable.YR_S3)]
    for params in cases:
        got, ref = eval_2f1(params, y), eval_2f1(params, y.astype(complex))
        assert got.dtype == np.float64 and ref.dtype == np.complex128
        assert np.array_equal(got, ref.real), params
        got = series_with_derivatives(params, y, 1 - y)
        ref = series_with_derivatives(params, y.astype(complex))
        for g, r in zip(got, ref):
            assert g.dtype == np.float64
            assert np.array_equal(g, r.real), params


def test_radial_forms_return_complex_arrays():
    for form, (lo, hi) in _terminating_forms():
        xs = np.linspace(lo, hi, 7)
        for value in (form.evaluate(xs), *form.evaluate_with_derivs(xs)):
            assert value.dtype == np.complex128


def _mp_derivs(params, y):
    """(F, F', F'') at y in mpmath, F' and F'' from 2F1 at shifted
    parameters."""
    a, b, c = (mpmath.mpmathify(v) for v in (params.a, params.b, params.c))
    y = mpmath.mpmathify(y)
    return [complex(mpmath.hyp2f1(a, b, c, y)),
            complex(a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, y)),
            complex(a * (a + 1) * b * (b + 1) / (c * (c + 1))
                    * mpmath.hyp2f1(a + 2, b + 2, c + 2, y))]


@pytest.mark.parametrize("params", [Hyp2F1Params(0.5 + 0.3j, 0.7, 1.9),
                                    Hyp2F1Params(1.3, 0.4 + 0.2j, 2.1 - 0.5j)])
def test_entry_points_take_the_connection_near_one(params):
    # the direct series runs past the 10,000-term cap at 0.999; every
    # entry point sums Re y > 0.9 in the y ~ 1 basis
    ys = [0.999, 0.9999, 0.995 + 0.05j]
    arr = series_with_derivatives(params, np.array(ys))
    with mpmath.workdps(30):
        for i, y in enumerate(ys):
            ref = _mp_derivs(params, y)
            got = series_with_derivatives(params, y)
            assert abs(eval_2f1(params, y) - ref[0]) <= 1e-13 * abs(ref[0]), y
            for k in range(3):
                assert abs(got[k] - ref[k]) <= 1e-13 * abs(ref[k]), (y, k)
                assert arr[k][i] == got[k], (y, k)


def _term_mass(params, r):
    """sum_k k!/(k-j)! |t_k| r^(k-j) for j = 0, 1, 2, the sizes of the
    terms of F, F' and F'' at |y| = r <= 0.9, where t_k = (a)_k (b)_k /
    ((c)_k k!): a series' rounding error scales with it, not with |F|."""
    ks = np.arange(3000)
    ratio = (params.a + ks) * (params.b + ks) / ((params.c + ks) * (ks + 1))
    t = np.abs(np.cumprod(np.r_[1, ratio[:-1]]))
    weights = (1, ks, ks * (ks - 1))
    return [float(np.sum(weights[j] * t * r ** (ks - j))) for j in range(3)]


def test_direct_series_matches_mpmath_on_hyp_suite_draws():
    # 0 <= Re y <= 1/2 is summed by the direct series alone; each error
    # is held to 16 eps times the sizes of the terms it sums
    rng = np.random.default_rng(20261019)
    eps = np.finfo(float).eps
    with mpmath.workdps(30):
        for _ in range(400):
            params = checks._random_params(rng)
            y = checks._random_y(rng)
            while not 0.0 <= y.real <= 0.5:
                y = checks._random_y(rng)
            got = series_with_derivatives(params, y)
            ref = _mp_derivs(params, y)
            mass = _term_mass(params, abs(y))
            for k in range(3):
                assert abs(got[k] - ref[k]) <= 16 * eps * mass[k], (params, y, k)


@st.composite
def _band_points(draw):
    """Points of the unit disc, at least one in each regime band of the
    non-terminating sums: Re y < 0 (Pfaff), 0 < Re y <= 0.9 (direct
    series), 1/2 < Re y <= 0.9 near the real axis (the Taylor discs) and
    Re y > 0.9 (the connection around y = 1)."""
    def point(lo, hi, radius, height=1.0):
        x = draw(st.floats(min_value=lo, max_value=hi))
        h = min(math.sqrt(radius ** 2 - x * x), height)
        return complex(x, draw(st.floats(min_value=-h, max_value=h)))
    bands = [(-0.9, -0.01, 0.9), (0.01, 0.9, 0.9), (0.5 + 1e-9, 0.9, 0.9, 0.05),
             (0.9 + 1e-9, 0.9999, 0.9999)]
    ys = [point(*band) for band in bands]
    extra = draw(st.lists(st.sampled_from(bands), max_size=5))
    return ys + [point(*band) for band in extra]


@settings(max_examples=30, deadline=None)
@given(_safe_params(), _band_points())
def test_forms_sum_as_the_entry_points_do(params, ys):
    # one regime policy: a bare form F on the axial map takes the same
    # path, and so the same values, as series_with_derivatives
    ys = np.array(ys)
    form = SolutionForm(0, 0, params, Variable.YZ).derivs_y(ys)
    kernel = series_with_derivatives(params, ys)
    for k in range(3):
        assert np.array_equal(form[k], kernel[k]), k


# ---------------------------------------------------------------------------
# Ring sums
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(_safe_params(), st.lists(_disc_y(), min_size=2, max_size=12))
@example(Hyp2F1Params(0.2, 0.45, 0.83), [0.05, -0.05, 0.69j, 0.6 + 0.3j])
@example(Hyp2F1Params(0.2, 0.45, 0.83), [0.55, 0.62 + 0.03j, 0.3, 0.75, 0.9])
def test_batch_values_do_not_depend_on_the_other_points(params, ys):
    # a point's sum has the degree of its |y| ring, which the ring's outer
    # radius and the parameters fix, so a slow point in the call does not
    # extend the sums of the fast ones in other rings; a Taylor
    # polynomial's degree depends on the parameters alone
    for entry in (series_with_derivatives, eval_2f1):
        batch = entry(params, np.array(ys))
        batch = batch if isinstance(batch, tuple) else (batch,)
        for i, y in enumerate(ys):
            alone = entry(params, y)
            alone = alone if isinstance(alone, tuple) else (alone,)
            for k in range(len(batch)):
                assert np.array(batch[k][i]).tobytes() == np.array(alone[k]).tobytes(), (y, k)


def _term_by_term(params, y):
    """F, F', F'' at one point, summed one term at a time until every
    step has stayed <= 1e-16 max(|sum|, 1) for three terms in a row."""
    a, b, c = params.a, params.b, params.c
    y = np.array([y])
    term, sums = np.ones(1, dtype=complex), np.zeros((3, 1), dtype=complex)
    calm = k = 0
    while calm < 3:
        steps = [term, k * term / y, k * (k - 1) * term / y**2]
        sums += steps
        small = all(abs(step[0]) <= 1e-16 * max(abs(acc[0]), 1.0)
                    for step, acc in zip(steps, sums))
        calm = calm + 1 if small else 0
        term = term * ((a + k) * (b + k) / ((c + k) * (k + 1))) * y
        k += 1
    return sums[:, 0]


@settings(max_examples=30, deadline=None)
@given(_safe_params(), st.lists(_disc_y(), min_size=1, max_size=6))
def test_ring_sums_match_the_term_by_term_loop(params, ys):
    # Horner's rule to the ring's degree and the forward sum to the
    # point's own stop differ by roundoff in the terms' sizes, which grows
    # with the hundreds of steps of the term recurrence (worst seen: 20 eps
    # at y = 0.875, where every term is positive)
    rings = hyp._series_array(params, np.array(ys), 2)
    eps = np.finfo(float).eps
    for i, y in enumerate(ys):
        ref, mass = _term_by_term(params, y), _term_mass(params, abs(y))
        for k in range(3):
            assert abs(rings[k][i] - ref[k]) <= 64 * eps * max(mass[k], 1.0), (y, k)


def test_one_point_at_the_series_cap_fails_the_batch(monkeypatch):
    # under a cap of 40 terms the rings up to |y| = 1/4 converge and the
    # ring (1/4, 1/2] does not, so 0.26 fails with 0.5, although its own
    # sum would stop within 40 terms; a disc point fails through its
    # centre's direct sum
    params = Hyp2F1Params(0.5, 0.7, 1.3)
    ys = np.array([0.1, 0.2j, 0.5, 0.24])
    series_with_derivatives(params, ys)  # converges under the real cap
    monkeypatch.setattr(hyp, "_SERIES_CAP", 40)
    series_with_derivatives(params, ys[[0, 1, 3]])
    for y in (ys, 0.26):
        with pytest.raises(NonConvergent, match="series cap 40 hit at .* 0.5$"):
            series_with_derivatives(params, y)
    with pytest.raises(NonConvergent, match="series cap 40"):
        eval_2f1(params, ys)
    with pytest.raises(NonConvergent, match="series cap 40 hit at .* 0.8$"):
        eval_2f1(params, np.array([0.1, 0.85]))


# ---------------------------------------------------------------------------
# The chunked cut against a step per coefficient
# ---------------------------------------------------------------------------


def _cut_term_by_term(coeffs, r, bounds, cap):
    """The cut rule of _truncated_rows one coefficient at a time, the
    reference the chunked cut must match bit for bit: (rows, sums) with
    sums[j] the running sum of derivative j's weighted terms, or None
    past degree cap."""
    f, sums = [], [0.0] * len(bounds)
    edge, calm = 1.0, 0
    for k, fk in enumerate(coeffs):
        if k > cap:
            return None
        f.append(fk)
        term, small = float(abs(fk)) * edge, True
        for j, bound in enumerate(bounds):
            if j:
                term = term * (k - j + 1) / r
            sums[j] += term
            small = small and term <= bound
        calm = calm + 1 if small else 0
        if calm == 3:
            break
        edge *= r
    f = np.array(f)
    ks = np.arange(f.size)
    rows = np.zeros((len(bounds), f.size), dtype=f.dtype)
    rows[0] = f
    weight = np.ones(f.size)
    for j in range(1, len(bounds)):
        weight = weight * (ks - j + 1)
        rows[j, :-j] = (weight * f)[j:]
    return rows, sums


def _ratio_coeffs(params, dtype=complex):
    """The series coefficients about 0 by their own recurrence, in dtype."""
    a, b, c = (dtype(v) for v in (params.a, params.b, params.c))
    t, k = dtype(1), 0
    while True:
        yield t
        t = t * ((a + k) * (b + k) / ((c + k) * (k + 1)))
        k += 1


def _same_bits(x, y):
    """Equal values with equal signs, so equal bits but for the padding
    of a long double."""
    return x.dtype == y.dtype and x.shape == y.shape and all(
        np.array_equal(u, v) and np.array_equal(np.signbit(u), np.signbit(v))
        for u, v in ((x.real, y.real), (x.imag, y.imag)))


def _assert_same_cut(got, ref):
    if ref is None:
        assert got is None
        return
    rows, terms = got
    assert rows.shape == ref[0].shape  # the degree
    assert _same_bits(rows, ref[0])
    assert np.cumsum(terms, axis=1)[:, -1].tolist() == ref[1]


def _cut_cases():
    """Hyp-suite draws, the h3 axial Z1 parameters at p = 0.7, 100 and 1000
    before Euler's transformation (at p = 1000 the coefficients about 0
    leave the float range past the cut of the innermost ring, which the
    kernel refuses the others for), and a slowly converging series."""
    rng = np.random.default_rng(20261019)
    cases = [checks._random_params(rng) for _ in range(6)]
    for p in (0.7, 100.0, 1000.0):
        c = 0.5 + 1j * p
        cases.append(Hyp2F1Params(c + 1.3j, c - 1.3j, c + 1))
    return cases + [Hyp2F1Params(0.2, 0.45, 0.83)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("params", _cut_cases())
def test_chunked_cut_matches_a_step_per_coefficient(params):
    # every ring of a call cuts one run: the same degree, row bits and
    # sums as a fresh step-per-coefficient loop, with every coefficient
    # the run made past the cuts finite
    for dmax in (0, 2):
        bounds = [hyp._SERIES_TOL] * (dmax + 1)
        run = hyp._series_run(params)
        for r in hyp._RINGS:
            _assert_same_cut(hyp._truncated_rows(run, r, bounds, hyp._SERIES_CAP),
                             _cut_term_by_term(_ratio_coeffs(params), r, bounds,
                                               hyp._SERIES_CAP))
        assert np.isfinite(run.f).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("params", _cut_cases()[:7])
def test_chunked_cut_matches_at_the_taylor_centres(params):
    # the centre rows, in long double, and the Taylor rows about each
    # centre, with their bounds, cap and gate
    for y0 in hyp._TAYLOR_CENTRES:
        bounds = [hyp._SERIES_TOL] * 3
        run = hyp._series_run(params, np.clongdouble)
        _assert_same_cut(hyp._truncated_rows(run, y0, bounds, hyp._SERIES_CAP),
                         _cut_term_by_term(_ratio_coeffs(params, np.clongdouble),
                                           y0, bounds, hyp._SERIES_CAP))
        assert np.isfinite(run.f).all()
        centre = hyp._centre_sums(params, y0)
        bounds = [hyp._SERIES_TOL * max(abs(v), 1.0) for v in centre]
        ref = _cut_term_by_term(hyp._taylor_coeffs(params, y0, centre),
                                hyp._TAYLOR_RADIUS, bounds, hyp._TAYLOR_DEGREE_CAP)
        run = hyp._Run(hyp._taylor_coeffs(params, y0, centre))
        _assert_same_cut(hyp._truncated_rows(run, hyp._TAYLOR_RADIUS, bounds,
                                             hyp._TAYLOR_DEGREE_CAP), ref)
        assert np.isfinite(run.f).all()
        gated = ref is None or any(m > hyp._TAYLOR_GATE * abs(v)
                                   for m, v in zip(ref[1], centre))
        rows = hyp._taylor_rows(params, y0)
        assert rows is None if gated else _same_bits(rows, ref[0])


@pytest.mark.parametrize("params", [Hyp2F1Params(0.2, 0.45, 0.83),
                                    Hyp2F1Params(4.7 - 1.2j, 4.1 + 0.9j, -2.3 + 0.4j),
                                    Hyp2F1Params(1 + 1.3j, 1 - 1.3j, 1.5 + 0.7j)])
def test_one_point_has_its_bits_in_every_batch(params):
    # a point summed alone has the bytes it has inside batches of 2 and 4
    # points (the flat Horner loop) and of 5 and 1500 (the wide one), in
    # every regime: rings, discs, Pfaff's map and the connection
    rng = np.random.default_rng(7)
    ys = [0.05, 0.3 - 0.2j, 0.45j, 0.62 + 0.03j, 0.79, -0.6 + 0.1j, 0.93 - 0.02j]
    fill = (0.95 * np.sqrt(rng.uniform(size=1500))
            * np.exp(2j * np.pi * rng.uniform(size=1500)))
    for y in ys:
        alone = [np.array(v).tobytes() for v in series_with_derivatives(params, y)]
        alone0 = np.array(eval_2f1(params, y)).tobytes()
        for size in (2, 4, 5, 1500):
            batch = fill[:size].copy()
            batch[size // 2] = y
            got = series_with_derivatives(params, batch)
            assert [v[size // 2].tobytes() for v in got] == alone, (y, size)
            assert eval_2f1(params, batch)[size // 2].tobytes() == alone0, (y, size)


def _on_ring_edges(rng, per_ring=8):
    """Points y with 0 < Re y < 1/2 on the edges |y| = R < 0.9 of the
    rings, where numpy's |y| and Python's abs put y in different rings."""
    out = []
    for r in hyp._RINGS[:6]:
        edge = []
        while len(edge) < per_ring:
            angle = rng.uniform(math.acos(min(0.5 / r, 1.0)), math.pi / 2)
            y = complex(r * math.cos(angle), r * math.sin(angle) * rng.choice([1, -1]))
            if (np.abs(np.array([y]))[0] <= r) != (abs(y) <= r):
                edge.append(y)
        out += edge
    return out


def _regime_points(rng, kind):
    """1,500 points of the unit disc in every regime of a non-terminating
    sum: Pfaff (Re y < 0), the direct rings and their edges, both Taylor
    discs and the connection (Re y > 0.9); complex or real."""
    edges = hyp._RINGS[:6]
    if kind == "real":
        return np.concatenate([rng.uniform(-0.95, 0.95, 1076), rng.uniform(0.5, 0.9, 300),
                               rng.uniform(0.9, 0.97, 112), edges, np.negative(edges)])
    disc = 0.9 * np.sqrt(rng.uniform(size=852)) * np.exp(2j * np.pi * rng.uniform(size=852))
    near = [_in_a_disc(rng, centre) for centre in hyp._TAYLOR_CENTRES for _ in range(200)]
    far = 0.9 + 0.05 * rng.uniform(size=200) + 0.2j * rng.uniform(-1, 1, 200)
    return np.concatenate([disc, near, far, _on_ring_edges(rng)])


_REGIME_CASES = {
    # every disc takes its Taylor polynomial
    "discs": Hyp2F1Params(1 + 1.3j, 1 - 1.3j, 1.5 + 0.7j),
    # the gate hands both discs to the direct series
    "gated": Hyp2F1Params(4.7 - 1.2j, 4.1 + 0.9j, -2.3 + 0.4j),
    # c - a - b = 1: the direct series in place of the connection
    "integer": Hyp2F1Params(0.2, 0.45, 1.65),
}


@pytest.mark.parametrize("case", sorted(_REGIME_CASES))
@pytest.mark.parametrize("kind", ["complex", "real"])
def test_each_point_of_a_wide_call_has_its_one_point_bits(case, kind):
    # a one-point call picks its regime and ring on Python scalars and
    # steps Horner's rule on Python complex scalars; each point of a
    # 1,500-point call (masks, numpy arrays) must have the same bits, 0-d
    # and as an array of one, for F alone and F, F', F''
    params = _REGIME_CASES[case]
    gated = [hyp._taylor_rows(params, y0) is None for y0 in hyp._TAYLOR_CENTRES]
    assert gated == [case == "gated"] * 2
    if case == "integer":
        with pytest.raises(DegenerateConnection):
            kummer_connection(params)
    ys = _regime_points(np.random.default_rng(34), kind)
    assert ys.size == 1500 and np.iscomplexobj(ys) == (kind == "complex")
    re = ys.real
    assert (re < 0).sum() >= 100 and (re > 0.9).sum() >= 50
    for y0 in hyp._TAYLOR_CENTRES:
        assert ((np.abs(ys - y0) < hyp._TAYLOR_RADIUS) & (re > 0.5)).sum() >= 100
    for entry in (eval_2f1, series_with_derivatives):
        wide = entry(params, ys)
        wide = np.array(wide if isinstance(wide, tuple) else (wide,))
        for i, y in enumerate(ys):
            for one in (entry(params, y), entry(params, ys[i:i + 1])):
                one = np.array(one if isinstance(one, tuple) else (one,)).reshape(-1)
                assert _same_bits(one, wide[:, i]), (entry.__name__, y)


# ---------------------------------------------------------------------------
# What the bits rest on: in-place Horner steps and the long-double run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("width", [5, 217, 1500])
@pytest.mark.parametrize("dmax", [0, 2])
@pytest.mark.parametrize("kind", ["complex", "real"])
def test_wide_horner_has_each_points_one_point_bits(width, dmax, kind):
    # the wide path steps in one accumulator, by numpy's complex product at
    # real t and by the sum of the products by tr + 0j and 0 + i ti at
    # complex t; each point must still have the bits of a one-point call
    # (the narrow path's Python complex scalars)
    c = 0.5 + 0.7j
    rows = hyp._series_rows(hyp._series_run(Hyp2F1Params(c + 1.3j, c - 1.3j, c + 1)),
                            0.5, dmax)[0]
    rng = np.random.default_rng(width + dmax)
    t = rng.uniform(-0.5, 0.5, size=width)
    if kind == "complex":
        t = 0.5 * np.sqrt(rng.uniform(size=width)) * np.exp(2j * np.pi * t)
    got = hyp._horner(rows, t)
    assert got.shape == (dmax + 1, width)
    for i in range(width):
        assert _same_bits(got[:, i:i + 1], hyp._horner(rows, t[i:i + 1])), i


@pytest.mark.parametrize("params", _cut_cases())
def test_long_double_run_has_the_scalar_loops_bits_in_any_chunks(params):
    # drawn a chunk of array passes at a time, the run equals one drawn at
    # once and the scalar recurrence in np.clongdouble, bit for bit
    size = 600
    ref = np.array(list(itertools.islice(_ratio_coeffs(params, np.clongdouble), size)))
    whole = hyp._series_run(params, np.clongdouble).upto(size)
    assert whole.size == size
    assert _same_bits(whole, ref)
    for chunk in (1, 7, 16, 256):
        run = hyp._series_run(params, np.clongdouble)
        for n in range(chunk, size + chunk, chunk):
            run.upto(n)
        assert _same_bits(run.upto(size), whole), chunk


def test_python_complex_product_rounds_as_the_float_view_formula():
    # the platform facts _horner's one rounding rule rests on: CPython's
    # complex product is re = ar tr - ai ti, im = ar ti + ai tr with each
    # operation rounded; numpy's complex128 product, fused or not, is
    # (ar t, ai t) by t + 0j and (-ai s, ar s) by 0 + i s, so the sum of
    # the two products by tr + 0j and 0 + i ti is CPython's product. A CPU,
    # numpy or Python that breaks one fails here, not in the golden digests.
    rng = np.random.default_rng(34)
    size = 4096
    x, t = (rng.normal(size=size) * np.exp2(rng.integers(-40, 40, size))
            + 1j * rng.normal(size=size) * np.exp2(rng.integers(-40, 40, size))
            for _ in range(2))
    python = np.array([u * v for u, v in zip(x.tolist(), t.tolist())])
    view = np.empty_like(x)
    view.real = x.real * t.real - x.imag * t.imag
    view.imag = x.real * t.imag + x.imag * t.real
    assert np.array_equal(python.view(float), view.view(float))
    s = t.real
    split = np.empty_like(x)
    split.real, split.imag = x.real * s, x.imag * s
    assert np.array_equal((x * (s + 0j)).view(float), split.view(float))
    assert np.array_equal((x * s).view(float), split.view(float))
    s = t.imag
    turn = np.empty_like(x)
    turn.real, turn.imag = -(x.imag * s), x.real * s
    assert np.array_equal((x * (s * 1j)).view(float), turn.view(float))
    assert np.array_equal((x * (t.real + 0j) + x * (t.imag * 1j)).view(float),
                          view.view(float))


def test_an_in_place_complex_product_rounds_as_a_fresh_one():
    # a platform fact _horner's wide path rests on: over a flat array of
    # 2 or more elements, a product in place or into out= rounds each
    # element as a fresh product does, here or inside a wider array. A
    # CPU or numpy that breaks it fails here, not in the golden digests.
    rng = np.random.default_rng(33)
    x = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    y = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    wide = x * y
    for width in range(2, 65):
        for start in range(0, 4096 - width, 61 * width):
            a, b = x[start:start + width], y[start:start + width]
            fresh = (a * b).view(float)
            in_place = a.copy()
            in_place *= b
            into = np.empty_like(a)
            np.multiply(a, b, out=into)
            assert np.array_equal(fresh, wide[start:start + width].view(float)), width
            assert np.array_equal(in_place.view(float), fresh), width
            assert np.array_equal(into.view(float), fresh), width


# ---------------------------------------------------------------------------
# Taylor discs about 0.6 and 0.8
# ---------------------------------------------------------------------------


def _in_a_disc(rng, centre):
    """A point drawn uniformly from the Taylor disc about centre."""
    while True:
        rho = hyp._TAYLOR_RADIUS * math.sqrt(rng.uniform())
        y = centre + rho * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        if y.real > 0.5:
            return y


def test_taylor_discs_match_mpmath_on_hyp_suite_draws():
    # the draws the gate leaves to the direct series are held to 1e-13;
    # the Taylor sums, seeded by centre sums in extended precision, to
    # 1e-14 (from centre sums in double they read 6e-14 here, which is
    # what a platform whose long double is a double gets)
    rng = np.random.default_rng(20261018)
    taken, taylor_err = 0, 0.0
    with mpmath.workdps(30):
        for i in range(300):
            params = checks._random_params(rng)
            centre = hyp._TAYLOR_CENTRES[i % 2]
            y = _in_a_disc(rng, centre)
            got = series_with_derivatives(params, y)
            ref = _mp_derivs(params, y)
            err = max(abs(got[k] - ref[k]) / max(1.0, abs(ref[k])) for k in range(3))
            assert err <= 1e-13, (params, y, err)
            if hyp._taylor_rows(params, centre) is not None:
                taken += 1
                taylor_err = max(taylor_err, err)
    assert taken >= 200
    if np.finfo(np.longdouble).eps < 1e-18:
        assert taylor_err <= 1e-14


def test_cancelling_taylor_terms_keep_the_direct_series(monkeypatch):
    # Re(a + b - c) ~ 11: the Taylor terms at the disc's edge sum to far
    # more than the centre value, so the gate leaves these points to the
    # direct series, value for value; without the gate the Taylor sums
    # take them
    params = Hyp2F1Params(4.7 - 1.2j, 4.1 + 0.9j, -2.3 + 0.4j)
    ys = np.array([0.52, 0.6 + 0.09j, 0.7, 0.71, 0.8 - 0.05j, 0.89])
    direct = hyp._series_array(params, ys, 2)
    kernel = series_with_derivatives(params, ys)
    for k in range(3):
        assert np.array_equal(kernel[k], direct[k]), k
    assert np.array_equal(eval_2f1(params, ys), hyp._series_array(params, ys, 0)[0])
    monkeypatch.setattr(hyp, "_TAYLOR_GATE", math.inf)
    ungated = series_with_derivatives(params, ys)
    assert not any(np.array_equal(ungated[k], direct[k]) for k in range(3))


def test_taylor_degree_cap_keeps_the_direct_series(monkeypatch):
    # with the h3 axial Z1 parameters at p = 100 before Euler's
    # transformation, (c + i lam, c - i lam; c + 1) with c = ip + 1/2, the
    # Taylor series about 0.8 needs more than _TAYLOR_DEGREE_CAP terms, so
    # the cap refuses that disc even with the gate off, and the kernel sums
    # its points directly, value for value
    monkeypatch.setattr(hyp, "_TAYLOR_GATE", math.inf)
    c, il = 100j + 0.5, 1.3j
    params = Hyp2F1Params(c + il, c - il, c + 1)
    assert hyp._taylor_rows(params, 0.8) is None
    assert hyp._taylor_rows(params, 0.6) is not None
    ys = np.array([0.75, 0.8, 0.83 + 0.02j, 0.88])
    direct = hyp._series_array(params, ys, 2)
    kernel = series_with_derivatives(params, ys)
    for k in range(3):
        assert np.array_equal(kernel[k], direct[k]), k
