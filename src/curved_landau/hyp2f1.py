"""Complex Gauss hypergeometric engine.

Series evaluation of 2F1 with complex parameters (including the
terminating polynomial cases that carry all bound states), a
self-contained principal-branch log-gamma, Kummer connection
coefficients between the y ~ 0 and y ~ 1 solution bases, and the
c-raising contiguous derivative identity used to couple first-order
solution pairs (taken at c - 1, it is the c-lowering one). Every sum,
the solution forms' included, goes through eval_2f1 or
series_with_derivatives to one dispatcher, _sum, which picks the regime
of each point: polynomial, direct series, Pfaff's transformation or the
connection around y = 1.

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

    def shifted(self, da: int = 0, db: int = 0, dc: int = 0) -> "Hyp2F1Params":
        return Hyp2F1Params(self.a + da, self.b + db, self.c + dc)


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
    ones by _blocked_series, which stops each point on its own."""
    a, b, c = params.a, params.b, params.c
    y = np.asarray(y, dtype=complex)
    out = [np.zeros(y.shape, dtype=complex) for _ in range(dmax + 1)]
    if params.terminating and params.degree == 0:
        out[0][...] = 1.0
        return out
    # y appears in denominators of the derivative accumulators; guard
    # exact zeros (the series derivatives at y=0 are handled via the k
    # offset below, and 0-division never contributes there).
    ysafe = np.where(y == 0, 1.0, y)
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
        # derivative contributions at exact y = 0 reduce to single terms
        zero = (y == 0)
        if np.any(zero):
            out[1][zero] = a * b / c
            if dmax >= 2:
                num = a * (a + 1) * b * (b + 1)
                out[2][zero] = 0.0 if num == 0 else num / (c * (c + 1))
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
# 0.8 1.2e-12, 0.85 5.1e-13, 0.9 2.2e-13, 0.95 1.2e-13.
_CONNECTION_SPLIT = 0.9


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
    if not (far.any() or left.any()):
        return _series_array(params, y, dmax)
    out = [np.empty(y.shape, dtype=complex) for _ in range(dmax + 1)]
    near = ~(far | left)
    if near.any():
        for o, v in zip(out, _series_array(params, y[near], dmax)):
            o[near] = v
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
    takes its regime (_sum: direct, Pfaff at Re y < 0, the connection at
    Re y > 0.9), and a series stops per point once its relative term
    stays below 1e-16 for 3 consecutive terms (cap 10,000), so a value
    does not depend on the other points of the call."""
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
