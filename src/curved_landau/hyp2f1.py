"""Complex Gauss hypergeometric engine.

Series evaluation of 2F1 with complex parameters (including the
terminating polynomial cases that carry all bound states), a
self-contained principal-branch log-gamma, Kummer connection
coefficients between the y ~ 0 and y ~ 1 solution bases, and the
c-raising contiguous derivative identity used to couple first-order
solution pairs (taken at c - 1, it is the c-lowering one). Every sum,
the solution forms' included, goes through eval_2f1 or
series_with_derivatives to one dispatcher, _sum, which picks the regime
of each point: polynomial, direct series, Pfaff's transformation, Taylor
polynomials about y0 = 0.6 and 0.8 or the connection around y = 1.

Everything here is pure and reentrant: no caching, no mutation of
shared state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

__all__ = [
    "Hyp2F1Error",
    "NonConvergent",
    "InvalidC",
    "PoleAtNonPositiveInteger",
    "DegenerateConnection",
    "KummerBranch",
    "Hyp2F1Params",
    "ConnectionCoefficients",
    "eval_2f1",
    "series_with_derivatives",
    "log_gamma",
    "kummer_connection",
    "u2_value",
    "u5_value",
    "u6_value",
    "contiguous_raise_c",
]

_TERM_TOL = 1e-12     # distance to a non-positive integer that counts as exact
_SERIES_TOL = 1e-16   # relative term size considered converged
_SERIES_CAP = 10_000  # hard cap on summed terms
_TINY = math.sqrt(np.finfo(float).tiny)  # |y| below which y^2 is subnormal


class Hyp2F1Error(ValueError):
    """Base class for hypergeometric-engine failures."""


class NonConvergent(Hyp2F1Error):
    """Series does not converge (|y| >= 1 non-terminating, or cap hit)."""


class InvalidC(Hyp2F1Error):
    """(c)_k vanishes before the series terminates."""


class PoleAtNonPositiveInteger(Hyp2F1Error):
    """log_gamma evaluated at a pole of Gamma."""


class DegenerateConnection(Hyp2F1Error):
    """c-a-b is an integer: logarithmic Kummer case, not computed."""


class KummerBranch(Enum):
    """Which of Kummer's y ~ 0 solutions is being connected: U1 is the
    plain series F(a,b,c;y), U5 is y^(1-c) F(a+1-c, b+1-c, 2-c; y)."""

    U1 = "u1"
    U5 = "u5"


def _nonpos_int_degree(x: complex) -> Optional[int]:
    """n >= 0 such that x is (numerically) -n, else None."""
    if abs(x.imag) > _TERM_TOL:
        return None
    k = round(x.real)
    if abs(x.real - k) <= _TERM_TOL and k <= 0:
        return -k
    return None


def _require_finite(*vals: complex) -> None:
    for v in vals:
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise Hyp2F1Error("non-finite parameter or argument")


@dataclass
class Hyp2F1Params:
    """Parameter triple (a, b, c) of F(a,b,c;y).

    `terminating` is set iff a or b is a non-positive real integer to
    within 1e-12; `degree` is then the polynomial degree (the smaller
    one if both qualify). Construction rejects c at a non-positive
    integer unless the series terminates before the vanishing
    denominator term.
    """

    a: complex
    b: complex
    c: complex
    terminating: bool = field(init=False)
    degree: Optional[int] = field(init=False)

    def __post_init__(self) -> None:
        self.a = complex(self.a)
        self.b = complex(self.b)
        self.c = complex(self.c)
        _require_finite(self.a, self.b, self.c)
        degs = [d for d in (_nonpos_int_degree(self.a), _nonpos_int_degree(self.b))
                if d is not None]
        self.degree = min(degs) if degs else None
        self.terminating = self.degree is not None
        q = _nonpos_int_degree(self.c)
        if q is not None and (self.degree is None or self.degree > q):
            raise InvalidC(
                f"c = {self.c} is a non-positive integer and the series "
                f"does not terminate before the vanishing denominator")

    def shifted(self, dc: int) -> "Hyp2F1Params":
        return Hyp2F1Params(self.a, self.b, self.c + dc)


@dataclass(frozen=True)
class ConnectionCoefficients:
    """Gamma-built coefficients mapping a y ~ 0 solution onto the
    y ~ 1 basis {U2, U6}."""

    to_u2: complex
    to_u6: complex


_BLOCK = 16       # terms per block of a non-terminating sum
_COLUMNS = 4096   # points per pass, which bounds the block work arrays


def _series_array(params: Hyp2F1Params, y: np.ndarray, dmax: int):
    """F and its first dmax y-derivatives, summed simultaneously over an
    array of arguments. Terminating series are summed exactly (the k-th
    term of the j-th derivative is k!/(k-j)! t_k / y^j); non-terminating
    ones by _blocked_series, which stops each point on its own.

    The polynomial loop, _blocked_series and _centre_sums stay three
    loops because each is the fastest for its case, measured on a 2-core
    x86-64 VM: polynomials summed by _blocked_series ran 1.8-5.7x slower
    than the loop below (1500 points, degree 1-30) and took the `states`
    benchmark's op_p50_ref from 0.16 to 0.24; one plain term loop per
    point for the non-terminating sums doubled a `verify` pass (the hyp
    suite from 0.5 s to 1.25 s)."""
    a, b, c = params.a, params.b, params.c
    y = np.asarray(y, dtype=complex)
    out = [np.zeros(y.shape, dtype=complex) for _ in range(dmax + 1)]
    if params.terminating and params.degree == 0:
        out[0][...] = 1.0
        return out
    # y and y^2 divide the derivative accumulators. Where |y| < _TINY,
    # 1/y^2 overflows, so those points sum with ysafe = 1 and take the
    # exact y = 0 limits ab/c and (a)_2 (b)_2/(c)_2 below, off by a
    # relative ~|y| < 1.5e-154.
    tiny = np.abs(y) < _TINY
    ysafe = np.where(tiny, 1.0, y)
    ysafe2 = ysafe**2
    if params.terminating:
        term = np.ones(y.shape, dtype=complex)
        for k in range(params.degree + 1):
            out[0] += term
            if dmax >= 1 and k >= 1:
                out[1] += k * term / ysafe
            if dmax >= 2 and k >= 2:
                out[2] += k * (k - 1) * term / ysafe2
            if k < params.degree:
                term = term * ((a + k) * (b + k) / ((c + k) * (k + 1))) * y
    else:
        _blocked_series(params, y.ravel(), (ysafe.ravel(), ysafe2.ravel()),
                        [o.reshape(-1) for o in out])
    if dmax >= 1:
        if np.any(tiny):
            out[1][tiny] = a * b / c
            if dmax >= 2:
                num = a * (a + 1) * b * (b + 1)
                out[2][tiny] = 0.0 if num == 0 else num / (c * (c + 1))
    return out


def _blocked_series(params: Hyp2F1Params, y: np.ndarray, ysafe, out) -> None:
    """Sum a non-terminating series into the flat arrays out[j], the j-th
    y-derivative at the flat y (ysafe: y and y^2 with zeros set to 1),
    _BLOCK terms at a time.

    A block runs the term recurrence t_k+1 = t_k (a+k)(b+k) y /
    ((c+k)(k+1)) one row per k and forms the partial sums by sequential
    cumsums seeded with the running sums, so each partial sum is the
    one a term-by-term loop forms. A point stops at the first k where,
    for 3 consecutive terms, every sum's step is at most _SERIES_TOL
    max(|sum|, 1) (the k-th term of the j-th derivative carries an
    extra factor ~k^j, so watching F alone would cut F'' short by
    ~k^2 * _SERIES_TOL). It takes its sums at that k and leaves the
    work arrays, so its value does not depend on the other points. A
    point still running at k = _SERIES_CAP raises NonConvergent.
    """
    a, b, c = params.a, params.b, params.c
    cap = _SERIES_CAP
    nsum = len(out)
    width = min(y.size, _COLUMNS)
    if not width:
        return
    # per sum, row 0 holds the running sum and rows 1.. the block's steps,
    # which the cumsum turns into partial sums in place
    work = np.empty((nsum, _BLOCK + 1, width), dtype=complex)
    weight = np.empty((_BLOCK, 1), dtype=complex)  # k!/(k-j)! per row
    term = np.empty(width, dtype=complex)  # the first term of the next block
    scratch = np.empty((_BLOCK, width), dtype=complex)
    # |step| and the bound it must meet share scratch's memory, which is
    # free again once a block's steps are formed
    step, bound = scratch.view(float)[:, :width], scratch.view(float)[:, width:]
    for lo in range(0, y.size, width):
        live = np.arange(lo, min(lo + width, y.size))
        yv, ys = y[live], [s[live] for s in ysafe[:nsum - 1]]
        m = live.size
        work[:, 0, :m] = 0.0
        work[0, 1, :m] = 1.0
        calm = np.zeros((2, m), dtype=bool)  # the last two terms were small
        k0 = 0
        while m:
            nb = max(1, min(_BLOCK, cap - k0 + 1))
            ks = range(k0, k0 + nb)
            w = work[:, :nb + 1, :m]
            # no complex product or quotient runs in place: on one-element
            # arrays an in-place numpy product can round differently from
            # the fresh one a term-by-term loop forms
            for r, k in enumerate(ks, start=1):
                coef = (a + k) * (b + k) / ((c + k) * (k + 1))
                np.multiply(w[0, r], coef, out=scratch[0, :m])
                np.multiply(scratch[0, :m], yv,
                            out=w[0, r + 1] if r < nb else term[:m])
            for j in range(1, nsum):
                weight[:nb, 0] = [math.perm(k, j) for k in ks]
                np.multiply(weight[:nb], w[0, 1:], out=scratch[:nb, :m])
                np.divide(scratch[:nb, :m], ys[j - 1], out=w[j, 1:])
            run = np.ones((nb + 2, m), dtype=bool)
            run[:2] = calm
            sizes, bounds = step[:nb, :m], bound[:nb, :m]
            for acc in w:
                np.abs(acc[1:], out=sizes)
                np.cumsum(acc, axis=0, out=acc)
                np.abs(acc[1:], out=bounds)
                np.maximum(bounds, 1.0, out=bounds)
                bounds *= _SERIES_TOL
                run[2:] &= sizes <= bounds
            done = run[2:] & run[1:-1] & run[:-2]
            hit = done.any(axis=0)
            k0 += nb
            if k0 > cap and not hit.all():
                raise NonConvergent(
                    f"series cap {cap} hit at |y|max = "
                    f"{float(np.max(np.abs(y))):.6g}")
            if hit.any():
                rows, cols = done.argmax(axis=0)[hit] + 1, np.flatnonzero(hit)
                for j, o in enumerate(out):
                    o[live[cols]] = w[j, rows, cols]
                keep = ~hit
                live, yv, calm = live[keep], yv[keep], run[-2:, keep]
                ys = [s[keep] for s in ys]
                carry, nxt = w[:, nb, keep], term[:m][keep]
            else:
                carry, nxt, calm = w[:, nb], term[:m], run[-2:]
            m = live.size
            work[:, 0, :m] = carry
            work[0, 1, :m] = nxt


# Re y above which _sum takes a non-terminating F in the y ~ 1 basis.
# The split is set by accuracy: near y = 1/2 the two connection terms
# grow like exp(pi*lam) and cancel, while the direct series needs ever
# more terms, and the k^2-weighted terms of F'' more still, as y -> 1.
# Worst error of the h3 axial forms and both z-derivatives (Z1 and Z2 on
# the U1 and U5 branches, 16 draws of p in [0.2, 2], lam from B in
# {2, 3.5, 5}, 86 points on |z| <= 10) against mpmath at 30 digits,
# relative to the sup-norm, by split: 0.5 1.1e-11, 0.7 2.9e-12,
# 0.8 1.2e-12, 0.85 5.1e-13, 0.9 2.2e-13, 0.95 1.2e-13. Points next to
# the split read worse: on the grid of tests/test_connection.py, which
# adds z = atanh(0.8) -+ 1e-9, the worst at 0.9 is 4.07e-13, F'' of the
# U5 Z2 form at B = 5, n = 4 (lam = 4.899), p = 0.701, at z = atanh(0.8)
# + 1e-9, just inside the connection side.
_CONNECTION_SPLIT = 0.9

# The Taylor regime on 1/2 < Re y <= _CONNECTION_SPLIT: discs of radius
# _TAYLOR_RADIUS about the real centres, where the direct series needs
# up to ~370 terms and the Taylor series about the centre (radius of
# convergence 0.4 and 0.2) ~35 and ~65 on the h3 axial forms. A centre
# whose coefficient recurrence runs past _TAYLOR_DEGREE_CAP terms, or
# whose terms at the disc's edge sum to more than _TAYLOR_GATE times the
# centre value (of F, F' or F''), leaves its disc to the direct series:
# those terms cancel. Without the gate, at Re(a + b - c) ~ 11, points
# 0.095 from 0.8 lost F'' to 6e-11 of max(1, |F''|), where the direct
# series reads 5e-15.
_TAYLOR_CENTRES = (0.6, 0.8)
_TAYLOR_RADIUS = 0.1
_TAYLOR_GATE = 16.0
_TAYLOR_DEGREE_CAP = 200


def _centre_sums(params: Hyp2F1Params, y0: float) -> list:
    """[F, F', F''] at the real point y0 by one scalar direct sum, which
    stops and meets the series cap by _blocked_series's rule. Every point
    of the disc inherits the centre's error, up to ~20x larger at the
    disc's edge, so the sum runs in np.longdouble, extended precision
    where the platform has it: summed in double, the centre values left
    hyp-suite draws at up to 1.6e-13 of max(1, |F''|), against 7e-15.
    It stays a scalar loop rather than a call of _blocked_series, which
    on this one long-double point ran ~4x slower (see _series_array)."""
    ext, tol = np.clongdouble, _SERIES_TOL
    a, b, c, y = ext(params.a), ext(params.b), ext(params.c), np.longdouble(y0)
    term, s0, s1, s2 = ext(1), ext(0), ext(0), ext(0)
    calm = k = 0
    while calm < 3:
        if k > _SERIES_CAP:
            raise NonConvergent(f"series cap {_SERIES_CAP} hit at |y|max = {y0:.6g}")
        step1 = k * term / y
        step2 = (k - 1) * step1 / y
        s0, s1, s2 = s0 + term, s1 + step1, s2 + step2
        # F'' is the last to settle, so it is tested first
        if (abs(step2) <= tol * max(abs(s2), 1.0) and abs(step1) <= tol * max(abs(s1), 1.0)
                and abs(term) <= tol * max(abs(s0), 1.0)):
            calm += 1
        else:
            calm = 0
        term = term * ((a + k) * (b + k) / ((c + k) * (k + 1))) * y
        k += 1
    return [complex(s0), complex(s1), complex(s2)]


def _taylor_rows(params: Hyp2F1Params, y0: float) -> Optional[np.ndarray]:
    """Coefficients of F, F' and F'' as polynomials in t = y - y0, one row
    each (row j, column k: the t^k coefficient of the j-th derivative),
    or None where the degree cap or the cancellation gate refuses.

    The Taylor coefficients f_k of F about y0 start from the centre sums
    (f_0, f_1, f_2 = F, F', F''/2) and follow from the hypergeometric ODE
    (DLMF 3.7(ii)):

        f_k+2 = -[((1 - 2 y0) k + c - (a + b + 1) y0) (k + 1) f_k+1
                  - (k + a)(k + b) f_k] / (y0 (1 - y0)(k + 1)(k + 2)).

    The degree is the first k after which, for 3 consecutive terms, the
    k^j-weighted terms k!/(k-j)! |f_k| R^(k-j) of every derivative at the
    disc's edge R stay below _SERIES_TOL max(|F^(j)(y0)|, 1). Everything
    here depends on the parameters and y0 alone, never on the points.
    """
    a, b, c = params.a, params.b, params.c
    centre = _centre_sums(params, y0)
    f = [centre[0], centre[1], centre[2] / 2]
    lin, const, den = 1 - 2 * y0, c - (a + b + 1) * y0, y0 * (1 - y0)
    r = _TAYLOR_RADIUS
    b0, b1, b2 = (_SERIES_TOL * max(abs(v), 1.0) for v in centre)
    m0 = m1 = m2 = 0.0  # the terms' sums at the disc's edge
    edge = 1.0  # r^k
    calm = k = 0
    while calm < 3:
        if k > _TAYLOR_DEGREE_CAP:
            return None
        if k >= 3:
            i = k - 2
            f.append(-((lin * i + const) * (i + 1) * f[i + 1]
                       - (i + a) * (i + b) * f[i]) / (den * (i + 1) * (i + 2)))
        t0 = abs(f[k]) * edge
        t1 = k * t0 / r
        t2 = (k - 1) * t1 / r
        m0, m1, m2 = m0 + t0, m1 + t1, m2 + t2
        calm = calm + 1 if t2 <= b2 and t1 <= b1 and t0 <= b0 else 0
        edge *= r
        k += 1
    if any(m > _TAYLOR_GATE * abs(v) for m, v in zip((m0, m1, m2), centre)):
        return None
    f = np.array(f)
    ks = np.arange(f.size)
    rows = np.zeros((3, f.size), dtype=complex)
    rows[0] = f
    rows[1, :-1] = ks[1:] * f[1:]
    rows[2, :-2] = ks[2:] * (ks[2:] - 1) * f[2:]
    return rows


def _horner(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The polynomials of rows at the points t, by Horner's rule. Every
    complex product is a fresh one over one flat array (on a one-element
    array, an in-place or 2-D product can round differently), so a value
    does not depend on the other points."""
    d, m = rows.shape[0], t.size
    tt = np.tile(t, d)
    acc = np.repeat(rows[:, -1:], m, axis=1)
    for k in range(rows.shape[1] - 2, -1, -1):
        acc = (acc.reshape(-1) * tt).reshape(d, m) + rows[:, k:k + 1]
    return acc


def _sum(params: Hyp2F1Params, y: np.ndarray, w: np.ndarray, dmax: int):
    """[F, dF/dy, d2F/dy2][:dmax + 1] (dmax 0 or 2) at the complex
    arrays y and w = 1 - y. This is the one place a regime is chosen,
    point by point:

    * terminating: the polynomial, at every y;
    * non-terminating: the point must lie in the unit disc, tested as
      2 Re w > |w|^2, which is |y| < 1 without the rounding of
      y = 1 - w (NonConvergent otherwise);
    * non-terminating, Re y > _CONNECTION_SPLIT and s = c - a - b not an
      integer: the y ~ 1 basis (DLMF 15.10.21),

          F = to_u2 G(w) + to_u6 w^s H(w),
          G = F(a, b; 1 - s; w),  H = F(c - a, c - b; 1 + s; w),

      differentiated exactly (d/dy = -d/dw);
    * non-terminating, Re y < 0: Pfaff's transformation (DLMF 15.8.1),

          F = w^-a F(a, c - b; c; x),  x = y/(y - 1) = -y/w,

      with F' and F'' by the exact chain rule (dx/dy = -1/w^2): there
      |x| < |y|, and the terms no longer alternate into the cancellation
      that costs the direct series up to ~1e6 |F| in its largest term;
    * non-terminating, 1/2 < Re y <= _CONNECTION_SPLIT and |y - y0| <
      _TAYLOR_RADIUS for a centre y0 in _TAYLOR_CENTRES: the Taylor
      polynomials of F, F' and F'' about y0 (_taylor_rows), by Horner's
      rule, unless the degree cap or the cancellation gate leaves that
      disc to the direct series;
    * the rest: the direct series.
    """
    _require_finite(complex(np.max(np.abs(y), initial=0.0)))
    if params.terminating:
        return _series_array(params, y, dmax)
    with np.errstate(over="ignore"):  # |w|^2 of a point far outside
        inside = 2.0 * w.real > np.abs(w) ** 2
    if not inside.all():
        big = float(np.max(np.abs(y[~inside])))
        raise NonConvergent(f"|y| = {big:.6g} >= 1 and series does not terminate")
    a, b, c = params.a, params.b, params.c
    s = c - a - b
    far = y.real > _CONNECTION_SPLIT
    if far.any():
        try:
            coeff = kummer_connection(params, KummerBranch.U1)
        except DegenerateConnection:
            far = np.zeros_like(far)
    left = y.real < 0.0
    near = ~(far | left)
    band = near & (y.real > 0.5) & (y.real <= _CONNECTION_SPLIT)
    discs = []
    for y0 in _TAYLOR_CENTRES:
        disc = band & (np.abs(y - y0) < _TAYLOR_RADIUS)
        if disc.any():
            rows = _taylor_rows(params, y0)
            if rows is not None:
                discs.append((disc, y0, rows[:dmax + 1]))
                near &= ~disc
    if near.all():
        return _series_array(params, y, dmax)
    out = [np.empty(y.shape, dtype=complex) for _ in range(dmax + 1)]
    if near.any():
        for o, v in zip(out, _series_array(params, y[near], dmax)):
            o[near] = v
    for disc, y0, rows in discs:
        for o, v in zip(out, _horner(rows, y[disc] - y0)):
            o[disc] = v
    if left.any():
        wl = w[left]
        g = _series_array(Hyp2F1Params(a, c - b, c), -y[left] / wl, dmax)
        pref = wl ** -a
        out[0][left] = pref * g[0]
        if dmax:
            out[1][left] = pref * (a / wl * g[0] - g[1] / wl**2)
            out[2][left] = pref * (a * (a + 1) / wl**2 * g[0]
                                   - 2 * (a + 1) / wl**3 * g[1] + g[2] / wl**4)
    if far.any():
        wf = w[far]
        g = _series_array(Hyp2F1Params(a, b, 1 - s), wf, dmax)
        h = _series_array(Hyp2F1Params(c - a, c - b, 1 + s), wf, dmax)
        u2, u6 = coeff.to_u2, coeff.to_u6 * wf ** s
        out[0][far] = u2 * g[0] + u6 * h[0]
        if dmax:
            out[1][far] = -u2 * g[1] - u6 * (s / wf * h[0] + h[1])
            out[2][far] = u2 * g[2] + u6 * (s * (s - 1) / wf**2 * h[0]
                                            + 2 * s / wf * h[1] + h[2])
    return out


def _points(y, w=None):
    """(y, w = 1 - y) as complex scalars, or from array input complex
    arrays. A given w is the caller's 1 - y, which keeps its relative
    precision as y -> 1, where 1 - y formed here would not."""
    y = complex(y) if np.ndim(y) == 0 else np.asarray(y, dtype=complex)
    return y, 1 - y if w is None else w


def eval_2f1(params: Hyp2F1Params, y, w=None):
    """Gauss hypergeometric function F(a,b,c;y) at a scalar or array y.
    w, if given, is 1 - y as the caller holds it (default 1 - y); it is
    data and selects no regime. Terminating parameters are summed
    exactly at every y; otherwise y must lie in the unit disc, each point
    takes its regime (_sum: direct, Pfaff at Re y < 0, Taylor polynomials
    within 0.1 of 0.6 and 0.8 on 1/2 < Re y <= 0.9, the connection at
    Re y > 0.9), and a series stops per point once its relative term
    stays below 1e-16 for 3 consecutive terms (cap 10,000). A Taylor
    polynomial's degree depends on the parameters alone, so a value does
    not depend on the other points of the call."""
    y, w = _points(y, w)
    f = _sum(params, np.asarray(y), np.asarray(w, dtype=complex), 0)[0]
    return complex(f) if np.ndim(y) == 0 else f


def series_with_derivatives(params: Hyp2F1Params, y, w=None) -> tuple:
    """(F, dF/dy, d2F/dy2) by term-wise differentiated series, with the
    exact chain rule through Pfaff's map or the connection; y, w and the
    domain rules as in eval_2f1."""
    y, w = _points(y, w)
    f0, f1, f2 = _sum(params, np.asarray(y), np.asarray(w, dtype=complex), 2)
    if np.ndim(y) == 0:
        return complex(f0), complex(f1), complex(f2)
    return f0, f1, f2


# Bernoulli numbers B_2..B_14 for the asymptotic log-gamma tail
_BERNOULLI = (
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730, 7.0 / 6,
)
_LOG_2PI = math.log(2.0 * math.pi)


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma.

    Conjugate reflection into the upper half plane, upward recurrence
    until Re z >= 8, then the Stirling series with fixed Bernoulli
    coefficients through B_14. Relative accuracy ~1e-13 on |z| <= 100.
    """
    z = complex(z)
    _require_finite(z)
    if _nonpos_int_degree(z) is not None and abs(z.imag) <= 1e-13:
        raise PoleAtNonPositiveInteger(f"Gamma pole at z = {z}")
    if z.imag < 0.0:
        return log_gamma(z.conjugate()).conjugate()
    acc = 0.0 + 0.0j
    while z.real < 8.0:
        acc -= cmath.log(z)
        z += 1.0
    s = (z - 0.5) * cmath.log(z) - z + 0.5 * _LOG_2PI
    w = 1.0 / z
    w2 = w * w
    t = w
    for n, bern in enumerate(_BERNOULLI, start=1):
        s += bern / (2 * n * (2 * n - 1)) * t
        t *= w2
    return acc + s


def _gamma_ratio(num, den) -> complex:
    """exp(sum log Gamma(num) - sum log Gamma(den)); 0 when a den
    argument sits on a pole of Gamma (1/Gamma is entire)."""
    s = 0.0 + 0.0j
    for z in num:
        s += log_gamma(z)
    for z in den:
        try:
            s -= log_gamma(z)
        except PoleAtNonPositiveInteger:
            return 0.0 + 0.0j
    return cmath.exp(s)


def kummer_connection(params: Hyp2F1Params,
                      which: KummerBranch) -> ConnectionCoefficients:
    """Connection coefficients expanding U1 or U5 over the y ~ 1 basis:

        U1 = [G(c)G(c-a-b)/(G(c-a)G(c-b))] U2 + [G(c)G(a+b-c)/(G(a)G(b))] U6
        U5 = [G(2-c)G(c-a-b)/(G(1-a)G(1-b))] U2
             + [G(2-c)G(a+b-c)/(G(a+1-c)G(b+1-c))] U6

    Raises DegenerateConnection when c-a-b is an integer (logarithmic
    case). A Gamma pole in a denominator makes that coefficient 0; one
    in a numerator propagates as PoleAtNonPositiveInteger.
    """
    a, b, c = params.a, params.b, params.c
    cab = c - a - b
    if abs(cab.imag) <= _TERM_TOL and abs(cab.real - round(cab.real)) <= _TERM_TOL:
        raise DegenerateConnection(f"c-a-b = {cab} is an integer")
    if which is KummerBranch.U1:
        return ConnectionCoefficients(
            to_u2=_gamma_ratio((c, cab), (c - a, c - b)),
            to_u6=_gamma_ratio((c, -cab), (a, b)),
        )
    return ConnectionCoefficients(
        to_u2=_gamma_ratio((2 - c, cab), (1 - a, 1 - b)),
        to_u6=_gamma_ratio((2 - c, -cab), (a + 1 - c, b + 1 - c)),
    )


def u2_value(params: Hyp2F1Params, y):
    """U2 = F(a, b, a+b-c+1; 1-y), the y ~ 1 solution analytic at y=1;
    y may be a scalar or an array."""
    a, b, c = params.a, params.b, params.c
    y, w = _points(y)
    return eval_2f1(Hyp2F1Params(a, b, a + b - c + 1), w, y)


def u6_value(params: Hyp2F1Params, y):
    """U6 = (1-y)^(c-a-b) F(c-a, c-b, c-a-b+1; 1-y); y may be a scalar
    or an array."""
    a, b, c = params.a, params.b, params.c
    y, w = _points(y)
    cab = c - a - b
    return w ** cab * eval_2f1(Hyp2F1Params(c - a, c - b, cab + 1), w, y)


def u5_value(params: Hyp2F1Params, y):
    """U5 = y^(1-c) F(a+1-c, b+1-c, 2-c; y), the second y ~ 0 solution;
    y may be a scalar or an array."""
    a, b, c = params.a, params.b, params.c
    y = _points(y)[0]
    return y ** (1 - c) * eval_2f1(Hyp2F1Params(a + 1 - c, b + 1 - c, 2 - c), y)


def contiguous_raise_c(params: Hyp2F1Params, y: complex) -> complex:
    """Left-hand side of the c-raising contiguous identity,

        (c-a-b) F(a,b,c;y) + (1-y) F'(a,b,c;y)
            = ((a-c)(b-c)/c) F(a,b,c+1;y),

    evaluated by term-wise differentiated series. At params.shifted(dc=-1)
    it is the left-hand side of the c-lowering identity,

        (c-1-a-b) F(a,b,c-1;y) + (1-y) F'(a,b,c-1;y)
            = ((a-c+1)(b-c+1)/(c-1)) F(a,b,c;y).
    """
    a, b, c = params.a, params.b, params.c
    if abs(c) <= _TERM_TOL:
        raise InvalidC("c = 0")
    y = complex(y)
    f, fp, _ = series_with_derivatives(params, y)
    return (c - a - b) * f + (1 - y) * fp
