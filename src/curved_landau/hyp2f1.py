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
Every non-terminating series, the centre sums of the Taylor regime and
the inner sums of Pfaff's map and the connection included, is one set
of polynomial rows summed by Horner's rule to the degree a radius needs.

Everything here is pure and reentrant: no caching, no mutation of
shared state.
"""

from __future__ import annotations

import cmath
import itertools
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
    "u6_value",
    "contiguous_raise_c",
]

_TERM_TOL = 1e-12     # distance to a non-positive integer that counts as exact
_SERIES_TOL = 1e-16   # weighted term size at a sum's radius counted as converged
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
    """Which of Kummer's y ~ 0 solutions an H3 axial form is built on
    (lobachevsky.h3_axial_solution): U1 is the plain series F(a,b,c;y),
    U5 is y^(1-c) F(a+1-c, b+1-c, 2-c; y)."""

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


# Outer radii of the |y| rings a non-terminating sum is cut into; the
# last ring takes every point left below |y| = 1. Each ring is summed to
# the degree its outer radius needs, so a point sums at most ~2x the
# terms its own |y| would need, and its value depends on its ring alone.
_RINGS = (1 / 16, 1 / 8, 1 / 4) + tuple(1 - 2.0 ** -j for j in range(1, 9)) + (1.0,)


class _Run:
    """The coefficients f_0, f_1, ... of one recurrence, drawn from the
    iterator coeffs in dtype as the cuts ask for them and kept, so that
    every ring of a call cuts its rows from one run. The run ends before
    its first coefficient that is not finite: no later weighted term can
    be small, so no cut lies past it."""

    def __init__(self, coeffs, dtype=complex):
        self._coeffs, self._dtype = coeffs, dtype
        self.f = np.empty(0, dtype)
        self.ended = False

    def upto(self, n: int) -> np.ndarray:
        """The first n coefficients, or all the run has where it ended
        before n; made where not made yet."""
        if n > self.f.size and not self.ended:
            more = np.array(list(itertools.islice(self._coeffs, n - self.f.size)),
                            self._dtype)
            bad = ~np.isfinite(more)
            if bad.any():
                more, self.ended = more[:bad.argmax()], True
            self.f = np.concatenate([self.f, more]) if self.f.size else more
        return self.f[:n]


# the fewest and the most coefficients a cut draws at once
_CHUNK_MIN, _CHUNK_MAX = 16, 256


def _first_chunk(r: float) -> int:
    """The coefficients a cut at radius r draws first: a bit past the
    degree at which r^k falls to _SERIES_TOL, the cut of a series of unit
    coefficients."""
    if r >= 1.0:
        return _CHUNK_MAX
    return min(_CHUNK_MAX, math.ceil(1.3 * math.log(_SERIES_TOL) / math.log(r)) + 8)


def _next_chunk(terms: np.ndarray, bounds, size: int) -> int:
    """The coefficients a cut draws next, after a chunk with no cut whose
    weighted terms are terms: a bit past where each derivative's terms,
    decaying at their rate over the chunk's last _CHUNK_MIN, fall to its
    bound; twice the last chunk where they do not decay."""
    span = min(_CHUNK_MIN, terms.shape[1] - 1)
    need = 0.0
    for row, bound in zip(terms, bounds):
        last, earlier = row[-1], row[-1 - span]
        if last <= bound:
            continue
        if not (span and 0.0 < last < earlier):
            return min(_CHUNK_MAX, 2 * size)
        need = max(need, span * math.log(last / bound) / math.log(earlier / last))
    return min(_CHUNK_MAX, max(_CHUNK_MIN, math.ceil(1.25 * need) + 4))


def _truncated_rows(run: _Run, r: float, bounds, cap: int):
    """A power series sum_k f_k t^k, its coefficients taken from run, cut
    at the first K after which, for 3 consecutive k, the weighted terms
    k!/(k-j)! |f_k| r^(k-j) of every derivative j < len(bounds) stay at
    most bounds[j] (the k^j weight makes F'' settle last, so watching F
    alone would cut F'' short by ~k^2 bounds[0]).

    Returns (rows, terms): row j, column k of rows holds the t^k
    coefficient of the j-th derivative, and of terms its weighted term,
    which bounds that term's size at |t| <= r. None past degree cap, or
    where the run ends first.

    The cut is found a chunk of coefficients at a time (_first_chunk,
    _next_chunk), with the same bits as a step per coefficient: r^k by a
    running product (cumprod), |f_k| by hypot as Python's abs takes it,
    and each weighted term from the one before it. A term past the float
    range is inf, never small, as Python's float arithmetic makes it."""
    chunks = []  # the weighted terms, by chunk
    calm, k0 = b"", 0  # the smalls that end the last chunk, at most 2
    size, limits = _first_chunk(r), np.reshape(bounds, (-1, 1))
    while True:
        f = run.upto(min(k0 + size, cap + 1))[k0:]
        if not f.size:
            return None
        stop = k0 + f.size
        edges = np.full(stop, r)  # r^k, as a running product from 1
        edges[0] = 1.0
        edges.cumprod(out=edges)
        terms = np.empty((len(bounds), f.size))
        ks = np.arange(k0, stop, dtype=float)
        with np.errstate(over="ignore"):
            mag = np.hypot(f.real, f.imag).astype(float, copy=False)  # abs(f_k)
            np.multiply(mag, edges[k0:], out=terms[0])
            for j in range(1, len(bounds)):  # times k!/(k-j)! / r^j
                np.multiply(terms[j - 1], ks - (j - 1) if j > 1 else ks,
                            out=terms[j])
                terms[j] /= r
        small = (terms <= limits).all(axis=0)
        chunks.append(terms)
        # the first k that ends three smalls in a row, one byte per k
        small = calm + small.tobytes()
        hit = small.find(b"\1\1\1")
        if hit >= 0:
            cut = k0 + hit + 2 - len(calm)
            terms = np.concatenate(chunks, axis=1) if len(chunks) > 1 else terms
            return _derivative_rows(run.f[:cut + 1], len(bounds)), terms[:, :cut + 1]
        calm = small[-2:].rpartition(b"\0")[2]
        size, k0 = _next_chunk(terms, bounds, size), stop


def _derivative_rows(f: np.ndarray, count: int) -> np.ndarray:
    """Row j, column k: the t^k coefficient of the j-th derivative of
    sum_k f_k t^k, for j < count."""
    rows = np.zeros((count, f.size), dtype=f.dtype)
    rows[0] = f
    ks = weight = np.arange(f.size, dtype=float)
    for j in range(1, count):
        if j > 1:
            weight = weight * (ks - (j - 1))  # k!/(k-j)!, exact
        np.multiply(f[j:], weight[j:], out=rows[j, :-j])
    return rows


def _series_run(params: Hyp2F1Params, dtype=complex) -> _Run:
    """The coefficients of F about 0, by the recurrence
    t_k+1 = t_k (a+k)(b+k)/((c+k)(k+1)) run in dtype."""
    a, b, c = (dtype(v) for v in (params.a, params.b, params.c))

    def coeffs():
        t, k = dtype(1), 0
        while True:
            yield t
            t = t * ((a + k) * (b + k) / ((c + k) * (k + 1)))
            k += 1
    return _Run(coeffs(), dtype)


def _series_rows(run: _Run, r: float, dmax: int) -> np.ndarray:
    """The rows of F about 0 (run: _series_run) and of its first dmax
    derivatives, to the degree the radius r needs by _truncated_rows'
    rule with every bound _SERIES_TOL. Raises NonConvergent past
    _SERIES_CAP terms."""
    cut = _truncated_rows(run, r, [_SERIES_TOL] * (dmax + 1), _SERIES_CAP)
    if cut is None:
        raise NonConvergent(f"series cap {_SERIES_CAP} hit at |y|max = {r:.6g}")
    return cut[0]


def _series_array(params: Hyp2F1Params, y: np.ndarray, dmax: int):
    """F and its first dmax y-derivatives over an array of arguments.

    A non-terminating series is cut into the |y| rings of _RINGS, and
    each ring's points are summed by Horner's rule (_horner) to the one
    degree its outer radius needs (_series_rows), with no per-point stop:
    a value depends on the parameters, dmax and its ring alone. The
    coefficient recurrence runs once per call (_series_run), and every
    ring cuts its rows from that one run, with the bits a run of its own
    gives. A ring whose degree passes _SERIES_CAP refuses all its points.

    A terminating series is summed exactly, term by term (the k-th term
    of the j-th derivative is k!/(k-j)! t_k / y^j). It stays a loop of
    its own because Horner's rule on these low-degree polynomials took
    the traced hyp2f1.terminating_s of a `states` pass from ~10.4 to
    ~16.5 ms, and its op_p50_ref up ~6 % (2-core x86-64 VM)."""
    a, b, c = params.a, params.b, params.c
    y = np.asarray(y, dtype=complex)
    out = [np.zeros(y.shape, dtype=complex) for _ in range(dmax + 1)]
    if not params.terminating:
        ring = np.searchsorted(_RINGS[:-1], np.abs(y))
        run = _series_run(params)
        for i in np.unique(ring):
            at = ring == i
            rows = _series_rows(run, _RINGS[i], dmax)
            for o, v in zip(out, _horner(rows, y[at])):
                o[at] = v
        return out
    if params.degree == 0:
        out[0][...] = 1.0
        return out
    # y and y^2 divide the derivative accumulators. Where |y| < _TINY,
    # 1/y^2 overflows, so those points sum with ysafe = 1 and take the
    # exact y = 0 limits ab/c and (a)_2 (b)_2/(c)_2 below, off by a
    # relative ~|y| < 1.5e-154.
    tiny = np.abs(y) < _TINY
    ysafe = np.where(tiny, 1.0, y)
    ysafe2 = ysafe**2
    term = np.ones(y.shape, dtype=complex)
    for k in range(params.degree + 1):
        out[0] += term
        if dmax >= 1 and k >= 1:
            out[1] += k * term / ysafe
        if dmax >= 2 and k >= 2:
            out[2] += k * (k - 1) * term / ysafe2
        if k < params.degree:
            term = term * ((a + k) * (b + k) / ((c + k) * (k + 1))) * y
    if dmax >= 1 and np.any(tiny):
        out[1][tiny] = a * b / c
        if dmax >= 2:
            num = a * (a + 1) * b * (b + 1)
            out[2][tiny] = 0.0 if num == 0 else num / (c * (c + 1))
    return out


# Re y above which _sum takes a non-terminating F in the y ~ 1 basis.
# The split is set by accuracy: near y = 1/2 the two connection terms
# grow like exp(pi*lam) and cancel, while the direct series needs ever
# more terms, and the k^2-weighted terms of F'' more still, as y -> 1.
# Worst error of the h3 axial forms and both z-derivatives (Z1 and Z2 on
# the U1 and U5 branches, the 11 (B, n, lam, p) of tests/test_connection.py's
# _axial_cases, 86 points on |z| <= 10) against mpmath at 30 digits,
# relative to the sup-norm, by split: 0.5 4.7e-11, 0.7 4.6e-12,
# 0.8 1.4e-12, 0.85 4.9e-13, 0.9 1.8e-13, 0.95 7.8e-14. Points next to
# the split read worse: on the grid of tests/test_connection.py, which
# adds z = atanh(0.8) -+ 1e-9, the worst at 0.9 is 4.25e-13, F'' of the
# U1 Z1 and U5 Z2 forms at B = 5, n = 4 (lam = 4.899), p = 0.701, at
# z = atanh(0.8) + 1e-9, just inside the connection side.
_CONNECTION_SPLIT = 0.9

# The Taylor regime on 1/2 < Re y <= _CONNECTION_SPLIT: discs of radius
# _TAYLOR_RADIUS about the real centres, where the direct series' rings
# need up to ~740 terms and the Taylor series about the centre (radius of
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
    """[F, F', F''] at the real point y0: the series rows to the degree y0
    needs (_series_rows), built and summed term by term in np.clongdouble,
    extended precision where the platform has it. Every point of the disc
    inherits the centre's error, up to ~20x larger at the disc's edge:
    summed in double, the centre values left hyp-suite draws at up to
    1.6e-13 of max(1, |F''|), against 7e-15. At one point the sum of the
    terms is ~7x faster than _horner."""
    rows = _series_rows(_series_run(params, np.clongdouble), y0, 2)
    return [complex(v) for v in rows @ np.longdouble(y0) ** np.arange(rows.shape[1])]


def _taylor_coeffs(params: Hyp2F1Params, y0: float, centre: list):
    """The Taylor coefficients f_k of F about y0, from the centre sums
    [F, F', F''] (f_0, f_1, f_2 = F, F', F''/2) on by the hypergeometric
    ODE (DLMF 3.7(ii)):

        f_k+2 = -[((1 - 2 y0) k + c - (a + b + 1) y0) (k + 1) f_k+1
                  - (k + a)(k + b) f_k] / (y0 (1 - y0)(k + 1)(k + 2))."""
    a, b, c = params.a, params.b, params.c
    lin, const, den = 1 - 2 * y0, c - (a + b + 1) * y0, y0 * (1 - y0)
    f = [centre[0], centre[1], centre[2] / 2]
    yield from f
    for k in itertools.count(1):
        f.append(-((lin * k + const) * (k + 1) * f[k + 1]
                   - (k + a) * (k + b) * f[k]) / (den * (k + 1) * (k + 2)))
        yield f[-1]


def _taylor_rows(params: Hyp2F1Params, y0: float) -> Optional[np.ndarray]:
    """F, F' and F'' as polynomials in t = y - y0 (rows as _truncated_rows
    makes them, from _taylor_coeffs), or None where the degree cap or the
    cancellation gate refuses.

    The degree follows _truncated_rows' rule at the disc's edge, with the
    bounds _SERIES_TOL max(|F^(j)(y0)|, 1); the gate sums each
    derivative's weighted terms in order. Everything here depends on the
    parameters and y0 alone, never on the points.
    """
    centre = _centre_sums(params, y0)
    bounds = [_SERIES_TOL * max(abs(v), 1.0) for v in centre]
    cut = _truncated_rows(_Run(_taylor_coeffs(params, y0, centre)),
                          _TAYLOR_RADIUS, bounds, _TAYLOR_DEGREE_CAP)
    if cut is None:
        return None
    sums = cut[1].cumsum(axis=1)[:, -1]
    if any(m > _TAYLOR_GATE * abs(v) for m, v in zip(sums, centre)):
        return None
    return cut[0]


# calls of at most this many points take _horner's flat loop
_NARROW = 4


def _horner(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The polynomials of rows at the points t, by Horner's rule. Every
    complex product is a fresh one over one flat array (on a one-element
    array, an in-place or 2-D product can round differently), so a value
    does not depend on the other points. A narrow call (at most _NARROW
    points) adds each step's coefficients from one contiguous row made
    up front, with no reshape per step: the same products and sums, so
    the same bits."""
    d, m = rows.shape[0], t.size
    tt = np.tile(t, d)
    if m <= _NARROW:
        steps = np.repeat(rows.T, m, axis=1)  # steps[k]: acc's layout of rows[:, k]
        acc = steps[-1]
        for step in steps[-2::-1]:
            acc = acc * tt + step
        return acc.reshape(d, m)
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
    * the rest: the direct series, summed by |y| rings (_series_array).
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
            coeff = kummer_connection(params)
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
    Re y > 0.9), and a series is summed to the degree at which its
    terms, weighted for each derivative asked for, stay below 1e-16 at
    the outer radius of the point's |y| ring (cap 10,000 terms). The
    degree depends on the parameters and the ring alone, so a value does
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


def kummer_connection(params: Hyp2F1Params) -> ConnectionCoefficients:
    """Connection coefficients expanding U1 = F(a,b,c;y) over the y ~ 1
    basis:

        U1 = [G(c)G(c-a-b)/(G(c-a)G(c-b))] U2 + [G(c)G(a+b-c)/(G(a)G(b))] U6

    Raises DegenerateConnection when c-a-b is an integer (logarithmic
    case). A Gamma pole in a denominator makes that coefficient 0; one
    in a numerator propagates as PoleAtNonPositiveInteger.
    """
    a, b, c = params.a, params.b, params.c
    cab = c - a - b
    if abs(cab.imag) <= _TERM_TOL and abs(cab.real - round(cab.real)) <= _TERM_TOL:
        raise DegenerateConnection(f"c-a-b = {cab} is an integer")
    return ConnectionCoefficients(
        to_u2=_gamma_ratio((c, cab), (c - a, c - b)),
        to_u6=_gamma_ratio((c, -cab), (a, b)),
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
