"""Complex Gauss hypergeometric engine.

Series evaluation of 2F1 with complex parameters (including the
terminating polynomial cases that carry all bound states), a
self-contained principal-branch log-gamma, and Kummer connection
coefficients between the y ~ 0 and y ~ 1 solution bases. Every sum,
the solution forms' included, goes through eval_2f1 or
series_with_derivatives to one dispatcher, _sum, which picks the regime
of each point: polynomial, direct series, Pfaff's transformation, Taylor
polynomials about y0 = 0.6 and 0.8 or the connection around y = 1.
Every non-terminating series, the centre sums of the Taylor regime and
the inner sums of Pfaff's map and the connection included, is one set
of polynomial rows summed by Horner's rule to the degree a radius needs.
Every Horner step, at any number of points, rounds as CPython's complex
product and sum do (_horner), so a call of one point sums on Python
scalars and picks its regime and ring on them (_one_point), with the
bits that point has in any array.

Everything here is pure and reentrant: no caching, no mutation of
shared state.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from ._numpy import np

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
]

_TERM_TOL = 1e-12     # distance to a non-positive integer that counts as exact
_SERIES_TOL = 1e-16   # weighted term size at a sum's radius counted as converged
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


def _require_finite(value, name: str, array: bool = False):
    """value as a complex (if array, an array: float64 where value is a real
    array, complex otherwise): the kernel's one gate, Hyp2F1Error naming it
    unless every entry is finite (range first)."""
    try:
        if not array:
            z = complex(value)
        else:
            z = np.asarray(value)
            z = z.astype(float) if z.dtype.kind in "biuf" else z.astype(complex)
    except OverflowError:
        raise Hyp2F1Error(f"{name} is too large for a float") from None
    if not (np.isfinite(z).all() if array else cmath.isfinite(z)):
        raise Hyp2F1Error(f"{name} must be finite")
    return z


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
        self.a = _require_finite(self.a, "a")
        self.b = _require_finite(self.b, "b")
        self.c = _require_finite(self.c, "c")
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
    """The coefficients f_0, f_1, ... of one recurrence in dtype, drawn as
    the cuts ask for them and kept, so that every ring of a call cuts its
    rows from one run. coeffs is an iterator, drawn a Python scalar at a
    time, or a function draw(n) that returns the next n coefficients as
    an array (_series_run's long-double run, a chunk of array passes at a
    time). The run ends before its first coefficient that is not finite:
    no later weighted term can be small, so no cut lies past it."""

    def __init__(self, coeffs, dtype=complex):
        if not callable(coeffs):
            coeffs = lambda n, it=coeffs: np.array(list(itertools.islice(it, n)), dtype)
        self._draw = coeffs
        self.f = np.empty(0, dtype)
        self.ended = False

    def upto(self, n: int) -> np.ndarray:
        """The first n coefficients, or all the run has where it ended
        before n; made where not made yet."""
        if n > self.f.size and not self.ended:
            more = self._draw(n - self.f.size)
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
    t_k+1 = t_k (a+k)(b+k)/((c+k)(k+1)) run in dtype.

    In complex128 the recurrence steps one Python complex at a time:
    numpy's complex division rounds differently from CPython's. In
    np.clongdouble, where numpy does the arithmetic either way, each draw
    of n is two array passes with the scalar loop's bits: the n ratios
    over a long-double arange of k, then one cumprod multiplying them on
    from the next coefficient, which is kept for the draw after."""
    a, b, c = (dtype(v) for v in (params.a, params.b, params.c))
    if dtype is complex:
        def coeffs():
            t, k = dtype(1), 0
            while True:
                yield t
                t = t * ((a + k) * (b + k) / ((c + k) * (k + 1)))
                k += 1
        return _Run(coeffs(), dtype)
    head, k0 = dtype(1), 0  # the next coefficient, t_k0

    def draw(n):
        nonlocal head, k0
        ks = np.arange(k0, k0 + n, dtype=np.longdouble)
        with np.errstate(over="ignore", invalid="ignore"):  # the run ends there
            t = np.cumprod(np.concatenate(
                ([head], (a + ks) * (b + ks) / ((c + ks) * (ks + 1)))))
        head, k0 = t[-1], k0 + n
        return t[:-1]
    return _Run(draw, dtype)


def _series_rows(run: _Run, r: float, dmax: int):
    """(rows, terms) of F about 0 (run: _series_run) and of its first
    dmax derivatives, cut at the degree the radius r needs by
    _truncated_rows' rule with every bound _SERIES_TOL. Raises
    NonConvergent past _SERIES_CAP terms."""
    cut = _truncated_rows(run, r, [_SERIES_TOL] * (dmax + 1), _SERIES_CAP)
    if cut is None:
        raise NonConvergent(f"series cap {_SERIES_CAP} hit at |y|max = {r:.6g}")
    return cut


def _ring_rows(run: _Run, ring: int, dmax: int) -> np.ndarray:
    """The rows of F and its first dmax derivatives for the |y| ring
    _RINGS[ring], F's row zeroed past F's own cut."""
    rows, terms = _series_rows(run, _RINGS[ring], dmax)
    if dmax:  # F to its own cut, the one a call for F alone makes
        rows[0, (terms[0] <= _SERIES_TOL).tobytes().find(b"\1\1\1") + 3:] = 0
    return rows


def _series_array(params: Hyp2F1Params, y: np.ndarray, dmax: int):
    """F and its first dmax y-derivatives over an array of arguments.

    A non-terminating series is cut into the |y| rings of _RINGS, and
    each ring's points are summed by Horner's rule (_horner) to the one
    degree its outer radius needs (_series_rows), with no per-point stop:
    a value depends on the parameters, dmax and its ring alone, and F on
    dmax neither: F's row is zeroed past its own cut (the first k that
    ends three small weighted terms of F alone), and Horner's rule passes
    those leading zeros through exactly. The coefficient recurrence runs
    once per call (_series_run), and every ring cuts its rows from that
    one run, with the bits a run of its own gives. A ring whose degree
    passes _SERIES_CAP refuses all its points. A call of one point takes
    its ring by the same search on a Python float, with no masks; |y| is
    numpy's either way, which rounds differently from Python's abs.

    A terminating series is summed exactly, term by term: the k-th term
    of the j-th derivative is k!/(k-j)! t_k y^(k-j), each built by
    products from t_k+1 y^k, so no sum divides by y. It stays a loop of
    its own because Horner's rule on these low-degree polynomials took
    the traced hyp2f1.terminating_s of a `states` pass from ~10.4 to
    ~16.5 ms, and its op_p50_ref up ~6 % (2-core x86-64 VM). At a real y
    with real a, b and c it runs in float64: the same products and sums,
    so each value is the real part of the complex sum, bit for bit."""
    a, b, c = params.a, params.b, params.c
    real = (params.terminating and not np.iscomplexobj(y)
            and a.imag == b.imag == c.imag == 0.0)
    if real:
        a, b, c = a.real, b.real, c.real
    dtype = float if real else complex
    y = np.asarray(y, dtype=dtype)
    if not params.terminating:
        run = _series_run(params)
        if y.size == 1:
            ring = bisect.bisect_left(_RINGS, np.abs(y).item(), 0, len(_RINGS) - 1)
            return [v.reshape(y.shape)
                    for v in _horner(_ring_rows(run, ring, dmax), y.reshape(1))]
        out = [np.empty(y.shape, dtype=dtype) for _ in range(dmax + 1)]
        ring = np.searchsorted(_RINGS[:-1], np.abs(y))
        for i in np.unique(ring):
            at = ring == i
            for o, v in zip(out, _horner(_ring_rows(run, i, dmax), y[at])):
                o[at] = v
        return out
    out = [np.zeros(y.shape, dtype=dtype) for _ in range(dmax + 1)]
    term = np.ones(y.shape, dtype=dtype)  # t_k y^k
    for k in range(params.degree):
        out[0] += term
        ratio = (a + k) * (b + k) / ((c + k) * (k + 1))  # t_k+1 / t_k
        if dmax >= 2 and k:
            out[2] += (k + 1) * k * (lag * ratio)
        lag = term * ratio  # t_k+1 y^k
        if dmax:
            out[1] += (k + 1) * lag
        term = lag * y
    out[0] += term
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
    needs (_series_rows), built (_series_run's chunked long-double run)
    and summed term by term in np.clongdouble, extended precision where
    the platform has it. Every point of the disc inherits the centre's
    error, up to ~20x larger at the disc's edge: summed in double, the
    centre values left hyp-suite draws at up to 1.6e-13 of max(1, |F''|),
    against 7e-15. At one point the sum of the terms, powers of y0
    included, takes about half of _horner's time (40 against 87 us at
    degree 84, 88 against 185 us at degree 189; x86-64, 2-core VM)."""
    rows = _series_rows(_series_run(params, np.clongdouble), y0, 2)[0]
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


# calls of at most this many points take _horner's loop on Python scalars
_NARROW = 4


def _horner(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The polynomials of rows at the points t, by Horner's rule, with a
    value that does not depend on the other points: every step rounds as
    CPython's complex product and sum do, re = ar tr - ai ti and
    im = ar ti + ai tr, each operation rounded, then the coefficient
    added. numpy's complex128 product in general does not: on x86-64 with
    AVX-512 (numpy 2.4) it fuses multiply and add, and ~43 % of random
    products round differently. Its product by a real t + 0i is
    (ar t, ai t), and by an imaginary 0 + i s is (-ai s, ar s), each
    component rounded once, fused or not. tests/test_hyp2f1.py checks
    these facts.

    * A narrow call (at most _NARROW points) steps each row at each point
      on Python complex scalars.
    * A wide call runs every step in one preallocated accumulator: its
      flat view times the tiled points in place (in place over two or
      more elements rounds as a fresh product), then each row's
      coefficient added in place. At complex t the product is taken as
      two, by tr + 0i and by 0 + i ti, and their sum, which rounds as
      CPython's formula does."""
    d, m = rows.shape[0], t.size
    if m <= _NARROW:
        ts = t.astype(complex, copy=False).tolist()
        out = np.empty((d, m), dtype=complex)
        for j, row in enumerate(rows.tolist()):
            top, *rest = reversed(row)
            for i, x in enumerate(ts):
                acc = top
                for coeff in rest:
                    acc = acc * x + coeff
                out[j, i] = acc
        return out
    tt = np.tile(t, d)
    acc = np.repeat(rows[:, -1:], m, axis=1)
    flat, cols = acc.reshape(-1), rows.T[:, :, None]  # cols[k]: rows[:, k] as a column
    if not tt.imag.any():
        for k in range(rows.shape[1] - 2, -1, -1):
            np.multiply(flat, tt, out=flat)
            np.add(acc, cols[k], out=acc)
        return acc
    tr, ti = tt.real + 0j, tt.imag * 1j  # tr + 0i and 0 + i ti
    part = np.empty_like(flat)
    for k in range(rows.shape[1] - 2, -1, -1):
        np.multiply(flat, tr, out=part)  # (ar tr, ai tr)
        np.multiply(flat, ti, out=flat)  # (-ai ti, ar ti)
        np.add(part, flat, out=flat)
        np.add(acc, cols[k], out=acc)
    return acc


def _sum(params: Hyp2F1Params, y: np.ndarray, w: np.ndarray, dmax: int):
    """[F, dF/dy, d2F/dy2][:dmax + 1] (dmax 0 or 2) at the arrays y and
    w = 1 - y, both float64 or both complex. This is the one place a
    regime is chosen, point by point:

    * terminating: the polynomial, at every y, in float64 where y and the
      parameters are real (_series_array);
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

    A call of one point picks its regime by the same predicates and
    constants on Python scalars (_one_point), with no masks. Pfaff's map
    and the connection are one helper each (_pfaff, _connection), which
    both paths call on arrays.
    """
    if params.terminating:
        return _series_array(params, y, dmax)
    if y.size == 1:
        one = _one_point(params, complex(y.item()), complex(w.item()), dmax)
        if one is not None:
            return [v.reshape(y.shape) for v in one]
    y, w = y.astype(complex, copy=False), w.astype(complex, copy=False)
    with np.errstate(over="ignore"):  # |w|^2 of a point far outside
        inside = 2.0 * w.real > np.abs(w) ** 2
    if not inside.all():
        big = float(np.max(np.abs(y[~inside])))
        raise NonConvergent(f"|y| = {big:.6g} >= 1 and series does not terminate")
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

    def put(at, values):
        for o, v in zip(out, values):
            o[at] = v
    if near.any():
        put(near, _series_array(params, y[near], dmax))
    for disc, y0, rows in discs:
        put(disc, _horner(rows, y[disc] - y0))
    if left.any():
        put(left, _pfaff(params, y[left], w[left], dmax))
    if far.any():
        put(far, _connection(params, coeff, w[far], dmax))
    return out


def _one_point(params: Hyp2F1Params, y: complex, w: complex, dmax: int):
    """_sum's values at one point of a non-terminating series, its regime
    picked on Python scalars by _sum's predicates and constants, with no
    masks; None outside the unit disc, which _sum's array path refuses.
    Each |.| is numpy's, as the array path takes it."""
    with np.errstate(over="ignore"):  # |w| of a point far outside
        size, *gaps = np.abs([w] + [y - y0 for y0 in _TAYLOR_CENTRES]).tolist()
    if not 2.0 * w.real > size * size:
        return None
    if y.real > _CONNECTION_SPLIT:
        try:
            coeff = kummer_connection(params)
        except DegenerateConnection:
            coeff = None
        if coeff is not None:
            return _connection(params, coeff, np.array([w]), dmax)
    if y.real < 0.0:
        return _pfaff(params, np.array([y]), np.array([w]), dmax)
    if 0.5 < y.real <= _CONNECTION_SPLIT:
        for y0, gap in zip(_TAYLOR_CENTRES, gaps):
            rows = _taylor_rows(params, y0) if gap < _TAYLOR_RADIUS else None
            if rows is not None:
                return _horner(rows[:dmax + 1], np.array([y - y0]))
    return _series_array(params, np.array([y]), dmax)


def _pfaff(params: Hyp2F1Params, y: np.ndarray, w: np.ndarray, dmax: int):
    """[F, F', F''][:dmax + 1] at the points y (w = 1 - y) by Pfaff's
    transformation and its exact chain rule (dx/dy = -1/w^2), on arrays
    in both of _sum's paths: numpy's complex division rounds differently
    from CPython's."""
    a, b, c = params.a, params.b, params.c
    g = _series_array(Hyp2F1Params(a, c - b, c), -y / w, dmax)
    pref = w ** -a
    out = [pref * g[0]]
    if dmax:
        out += [pref * (a / w * g[0] - g[1] / w**2),
                pref * (a * (a + 1) / w**2 * g[0] - 2 * (a + 1) / w**3 * g[1] + g[2] / w**4)]
    return out


def _connection(params: Hyp2F1Params, coeff: ConnectionCoefficients,
                w: np.ndarray, dmax: int):
    """[F, F', F''][:dmax + 1] at the points w = 1 - y in the y ~ 1 basis
    (coeff: kummer_connection), d/dy = -d/dw, on arrays as _pfaff is."""
    a, b, c = params.a, params.b, params.c
    s = c - a - b
    g = _series_array(Hyp2F1Params(a, b, 1 - s), w, dmax)
    h = _series_array(Hyp2F1Params(c - a, c - b, 1 + s), w, dmax)
    u2, u6 = coeff.to_u2, coeff.to_u6 * w ** s
    out = [u2 * g[0] + u6 * h[0]]
    if dmax:
        out += [-u2 * g[1] - u6 * (s / w * h[0] + h[1]),
                u2 * g[2] + u6 * (s * (s - 1) / w**2 * h[0] + 2 * s / w * h[1] + h[2])]
    return out


def _points(y, w=None):
    """(y, w = 1 - y) through the gate: complex scalars, or from array input
    arrays, float64 where both are real and complex otherwise. A given w
    is the caller's 1 - y, which keeps its relative precision as y -> 1,
    where 1 - y formed here would not."""
    y = _require_finite(y, "y", np.ndim(y) != 0)
    w = 1 - y if w is None else _require_finite(w, "w", np.ndim(w) != 0)
    if np.iscomplexobj(y) != np.iscomplexobj(w):
        y, w = np.asarray(y, dtype=complex), np.asarray(w, dtype=complex)
    return y, w


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
    not depend on the other points of the call. A terminating sum at a
    real array y (and w) with real parameters is a float64 array; every
    other array result is complex."""
    y, w = _points(y, w)
    f = _sum(params, np.asarray(y), np.asarray(w), 0)[0]
    return complex(f) if np.ndim(y) == 0 else f


def series_with_derivatives(params: Hyp2F1Params, y, w=None) -> tuple:
    """(F, dF/dy, d2F/dy2) by term-wise differentiated series, with the
    exact chain rule through Pfaff's map or the connection; y, w, the
    domain rules and the result's dtype as in eval_2f1."""
    y, w = _points(y, w)
    f0, f1, f2 = _sum(params, np.asarray(y), np.asarray(w), 2)
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
    z = _require_finite(z, "z")
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
