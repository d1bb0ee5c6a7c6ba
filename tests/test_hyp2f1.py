"""Series engine: values, termination, gamma, connection, contiguity."""

import cmath
import math

import numpy as np
import pytest
import mpmath
import scipy.special
from hypothesis import assume, example, given, settings, strategies as st

from curved_landau import hyp2f1 as hyp
from curved_landau.hyp2f1 import (
    DegenerateConnection,
    Hyp2F1Error,
    Hyp2F1Params,
    InvalidC,
    KummerBranch,
    NonConvergent,
    contiguous_raise_c,
    eval_2f1,
    kummer_connection,
    log_gamma,
    series_with_derivatives,
    u2_value,
    u5_value,
    u6_value,
)
from curved_landau.model import SolutionForm, Variable


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
    coeff = kummer_connection(params, KummerBranch.U1)
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
    coeff = kummer_connection(params, KummerBranch.U1)
    assert coeff.to_u2 == 0
    y = 0.6 + 0.1j
    assert abs(eval_2f1(params, y) - coeff.to_u6 * u6_value(params, y)) < 1e-12


def test_kummer_connection_u5_branch():
    params = Hyp2F1Params(0.4, 1.9, 0.7)
    y = 0.5
    coeff = kummer_connection(params, KummerBranch.U5)
    joined = (coeff.to_u2 * u2_value(params, y)
              + coeff.to_u6 * u6_value(params, y))
    assert abs(u5_value(params, y) - joined) < 1e-12


def test_degenerate_connection_rejected():
    # c - a - b exactly integer -> logarithmic case
    with pytest.raises(DegenerateConnection):
        kummer_connection(Hyp2F1Params(0.5, 0.5, 2.0), KummerBranch.U1)


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
    lhs = contiguous_raise_c(params, y)
    rhs = ((a - c) * (b - c) / c) * eval_2f1(params.shifted(dc=1), y)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


@settings(max_examples=60, deadline=None)
@given(_safe_params(), _disc_y())
@example(*_CANCELLING)
def test_contiguous_lower_identity(params, y):
    a, b, c = params.a, params.b, params.c
    lhs = contiguous_raise_c(params.shifted(dc=-1), y)
    rhs = ((a - c + 1) * (b - c + 1) / (c - 1)) * eval_2f1(params, y)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


@settings(max_examples=60, deadline=None)
@given(_safe_params(), _disc_y(lens=True))
def test_two_term_recombination(params, y):
    f = eval_2f1(params, y)
    coeff = kummer_connection(params, KummerBranch.U1)
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


@st.composite
def _band_points(draw):
    """Points of the unit disc, at least one in each regime band of the
    non-terminating sums: Re y < 0 (Pfaff), 0 < Re y <= 0.9 (direct
    series) and Re y > 0.9 (the connection around y = 1)."""
    def point(lo, hi, radius):
        x = draw(st.floats(min_value=lo, max_value=hi))
        h = math.sqrt(radius ** 2 - x * x)
        return complex(x, draw(st.floats(min_value=-h, max_value=h)))
    bands = [(-0.9, -0.01, 0.9), (0.01, 0.9, 0.9), (0.9 + 1e-9, 0.9999, 0.9999)]
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


def test_contiguous_guards():
    with pytest.raises(InvalidC):
        contiguous_raise_c(Hyp2F1Params(0.3, 0.4, 1e-13), 0.2)
    with pytest.raises(InvalidC):
        contiguous_raise_c(Hyp2F1Params(0.3, 0.4, 1.0 + 1e-13).shifted(dc=-1), 0.2)


# ---------------------------------------------------------------------------
# Per-point stopping
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(_safe_params(), st.lists(_disc_y(), min_size=2, max_size=12))
@example(Hyp2F1Params(0.2, 0.45, 0.83), [0.05, -0.05, 0.69j, 0.6 + 0.3j])
def test_batch_values_do_not_depend_on_the_other_points(params, ys):
    # each point stops at its own k, so a slow point in the call does not
    # extend the sums of the fast ones
    batch = series_with_derivatives(params, np.array(ys))
    for i, y in enumerate(ys):
        alone = series_with_derivatives(params, y)
        for k in range(3):
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
def test_blocked_sums_match_the_term_by_term_loop(params, ys):
    blocked = hyp._series_array(params, np.array(ys), 2)
    for i, y in enumerate(ys):
        assert [blocked[k][i] for k in range(3)] == list(_term_by_term(params, y)), y


def test_one_point_at_the_series_cap_fails_the_batch(monkeypatch):
    params = Hyp2F1Params(0.5, 0.7, 1.3)
    ys = np.array([0.1, 0.2j, 0.9, 0.3])
    series_with_derivatives(params, ys)  # converges under the real cap
    monkeypatch.setattr(hyp, "_SERIES_CAP", 40)
    series_with_derivatives(params, ys[[0, 1, 3]])
    with pytest.raises(NonConvergent, match="series cap 40"):
        series_with_derivatives(params, ys)
    with pytest.raises(NonConvergent, match="series cap 40"):
        eval_2f1(params, ys)
