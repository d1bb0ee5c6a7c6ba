"""Seeded inputs, operations and correctness gates of the three workloads.

Only ``import_package`` touches ``sys.path``: it loads curved_landau
from this checkout's ``src/`` and refuses any other copy. Everything
else takes its inputs from a seed, so the same seed gives the same
inputs; the program only ever sees the generated inputs.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

POINTS = 1500          # evaluation points per state
CHECK_POINTS = 20      # seeded subsample compared against mpmath
CHECK_DPS = 30         # mpmath working digits of the reference
TOLERANCE = 1e-8       # error relative to the sup-norm over the subsample

H3_R_WINDOW = (1e-3, 12.0)
S3_R_WINDOW = (1e-3, math.pi - 1e-3)
S3_Z_WINDOW = (-(math.pi / 2 - 0.1), math.pi / 2 - 0.1)
# h3 axial half-widths; the series cost grows steeply with them and
# |z| >= 3 hits the 10,000-term cap for some (p, lambda) (ROADMAP item 3)
H3_Z_MAXES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
# (geometry, B, two_m, n) of r1 states whose terminating series loses
# all its digits (ROADMAP item 2); the s3 ones fix two of the (two_m, B)
# sweeps over n <= 40
KNOWN_BAD = (("h3", 50.0, 1, 45), ("s3", 1.0, 1, 30), ("s3", 10.0, 41, 40))
# The timed mix keeps to the part of the lattice this code evaluates
# within TOLERANCE, so no op fails: the highest h3 radial n per B, the
# highest s3 radial n, the widest h3 axial window and the highest s3
# axial n_z. Measured against mpmath over two_m spread across the
# drawable range, the worst errors there were 5e-11, 2e-11, 2e-14 and
# 5e-10. The rest of the lattice is the untimed defect sweep.
H3_R_MIX_N = {5.0: 4, 20.0: 4, 50.0: 3}
S3_R_MIX_N = 4
H3_Z_MIX_MAX = 2.5
S3_Z_MIX_NZ = 9
H3_R_REPEATS = 3       # drawn (component, two_m) per (B, n) in the mix


class SetupError(RuntimeError):
    """The checkout does not hold a loadable curved_landau."""


def import_package():
    """Import curved_landau (with its CLI) from ``<checkout>/src``."""
    init = SRC / "curved_landau" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no package source at {init}")
    sys.path.insert(0, str(SRC))
    import curved_landau
    import curved_landau.cli  # noqa: F401  (the cli workload's layer)
    if Path(curved_landau.__file__).resolve() != init.resolve():
        raise SetupError(f"imported {curved_landau.__file__}, not {init}")
    return curved_landau


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class State:
    """One admissible state and the window it is sampled on."""

    geometry: str            # "h3" or "s3"
    component: str           # "r1", "r2", "z1", "z2"
    B: float
    two_m: int
    n: int
    window: Tuple[float, float]
    p: Optional[float] = None    # h3 axial momentum
    n_z: Optional[int] = None    # s3 axial level

    @property
    def label(self) -> str:
        extra = (f" p={self.p:.4g} z<={self.window[1]:g}" if self.p is not None
                 else f" n_z={self.n_z}" if self.n_z is not None else "")
        return (f"{self.geometry} {self.component} B={self.B:g} "
                f"two_m={self.two_m} n={self.n}{extra}")


def _admissible(cl, geometry: str, two_m: int, B: float, n: int,
                component: str) -> bool:
    from curved_landau.model import Component
    quantize = (cl.lobachevsky.h3_quantize if geometry == "h3"
                else cl.spherical.s3_quantize)
    return quantize(two_m, B, n, Component(component)).admissible


def _odd(rng: np.random.Generator, lo: int, hi: int) -> int:
    """Odd integer drawn uniformly from [lo, hi]."""
    return int(rng.choice(np.arange(lo, hi + 1)[np.arange(lo, hi + 1) % 2 != 0]))


def _h3_radial(cl, rng: np.random.Generator, B: float, n: int) -> State:
    """h3 radial state at (B, n) with a drawn admissible component and m."""
    bound = 2 * math.ceil(B) - 1
    while True:
        component = str(rng.choice(["r1", "r2"]))
        two_m = _odd(rng, -bound, bound)
        if _admissible(cl, "h3", two_m, B, n, component):
            return State("h3", component, B, two_m, n, H3_R_WINDOW)


def generate_states(cl, seed: int) -> Tuple[List[State], List[State]]:
    """The states lattice as (mix, sweep): the h3 radial lattice at B in
    {5, 20, 50}, n <= ceil(B)-1; s3 radial n <= 40 at four (two_m, B);
    h3 axial Z1 and Z2 at half-widths up to 4 (two of each in the mix);
    s3 axial n_z <= 20 at two drawn lambda. ``mix`` is the timed part this code evaluates
    accurately (see H3_R_MIX_N and the rest), ``sweep`` the rest,
    ROADMAP item 2 and 3 states included."""
    rng = np.random.default_rng([seed, 1])
    mix: List[State] = []
    sweep: List[State] = []
    for B in (5.0, 20.0, 50.0):
        for n in range(math.ceil(B)):
            if n <= H3_R_MIX_N[B]:
                mix += [_h3_radial(cl, rng, B, n) for _ in range(H3_R_REPEATS)]
            else:
                sweep.append(_h3_radial(cl, rng, B, n))
    sweep += [State("h3", "r1", B, two_m, n, H3_R_WINDOW)
              for geometry, B, two_m, n in KNOWN_BAD if geometry == "h3"]
    combos = [(two_m, B) for geometry, B, two_m, _ in KNOWN_BAD
              if geometry == "s3"]
    combos += [(_odd(rng, -21, 21), float(rng.choice([0.5, 1.5, 2.5]))),
               (_odd(rng, -41, 41), float(rng.choice([4.0, 7.5, 12.0])))]
    for two_m, B in combos:
        levels = [State("s3", component, B, two_m, n, S3_R_WINDOW)
                  for n in range(41) for component in ("r1", "r2")
                  if _admissible(cl, "s3", two_m, B, n, component)]
        # one component per level: the first admissible one
        levels = [s for i, s in enumerate(levels)
                  if i == 0 or s.n != levels[i - 1].n]
        mix += levels[:S3_R_MIX_N + 1]
        sweep += levels[S3_R_MIX_N + 1:]
    for z_max in H3_Z_MAXES:
        # in the mix, p is drawn from each half of [0.2, 2.0] for each
        # component, since these sums cost more at larger p and set most
        # of a pass's time
        halves = (0, 1) if z_max <= H3_Z_MIX_MAX else (None,)
        for component in ("z1", "z2"):
            for half in halves:
                B = float(rng.choice([2.0, 3.5, 5.0]))
                n = int(rng.integers(1, math.ceil(B)))
                p = (rng.uniform(0.2, 2.0) if half is None
                     else rng.uniform(0.2 + 0.9 * half, 1.1 + 0.9 * half))
                state = State("h3", component, B, 1, n, (-z_max, z_max),
                              p=float(p))
                (mix if half is not None else sweep).append(state)
    for _ in range(2):
        two_m, B = _odd(rng, -9, 9), float(rng.choice([0.5, 1.0, 3.0]))
        n = int(rng.integers(0, 6))
        while not _admissible(cl, "s3", two_m, B, n, "r1"):
            n += 1
        for n_z in range(21):
            state = State("s3", str(rng.choice(["z1", "z2"])), B, two_m, n,
                          S3_Z_WINDOW, n_z=n_z)
            (mix if n_z <= S3_Z_MIX_NZ else sweep).append(state)
    return mix, sweep


def state_points(state: State) -> np.ndarray:
    return np.linspace(state.window[0], state.window[1], POINTS)


def check_indices(seed: int, count: int, stream: int = 2) -> List[np.ndarray]:
    """Seeded subsample of the evaluation points for each state."""
    rng = np.random.default_rng([seed, stream])
    return [np.sort(rng.choice(POINTS, CHECK_POINTS, replace=False))
            for _ in range(count)]


def run_state(cl, state: State, xs: np.ndarray):
    """One states op: quantize, build the solution form, evaluate it and
    its first two derivatives at ``xs``. Returns (form, (G, G', G''))."""
    from curved_landau.hyp2f1 import KummerBranch
    from curved_landau.model import Component
    lob, sph = cl.lobachevsky, cl.spherical
    component = Component(state.component)
    radial = state.component in ("r1", "r2")
    quantize = lob.h3_quantize if state.geometry == "h3" else sph.s3_quantize
    entry = quantize(state.two_m, state.B, state.n,
                     component if radial else Component.R1)
    if radial:
        build = (lob.h3_radial_solution if state.geometry == "h3"
                 else sph.s3_radial_solution)
        form = build(state.two_m, state.B, entry.lambda_sq, component,
                     entry.variant)
    elif state.geometry == "h3":
        form = lob.h3_axial_solution(state.p, math.sqrt(entry.lambda_sq),
                                     KummerBranch.U1, component)
    else:
        lam = math.sqrt(entry.lambda_sq)
        form = sph.s3_axial_solution(sph.s3_axial_quantize(lam, state.n_z),
                                     lam, component)
    return form, form.evaluate_with_derivs(xs)


def reference_values(form, xs: Sequence[float]) -> np.ndarray:
    """y^A (1-y)^C 2F1(a,b;c;y) at ``xs`` in mpmath at CHECK_DPS digits.

    Terminating parameters are passed as the exact non-positive integer
    the float lies within 1e-12 of, so mpmath sums the same polynomial.
    """
    import mpmath

    def exact(v: complex):
        if form.params.terminating and abs(v.imag) <= 1e-12:
            k = round(v.real)
            if k <= 0 and abs(v.real - k) <= 1e-12:
                return mpmath.mpf(k)
        return mpmath.mpc(v.real, v.imag)

    maps = {
        "yz": lambda x: (1 + mpmath.tanh(x)) / 2,
        "yr": lambda x: (1 + mpmath.cosh(x)) / 2,
        "yz_s3": lambda x: (1 + 1j * mpmath.tan(x)) / 2,
        "yr_s3": lambda x: (1 + mpmath.cos(x)) / 2,
    }
    out = []
    with mpmath.workdps(CHECK_DPS):
        a, b, c = (exact(form.params.a), exact(form.params.b),
                   exact(form.params.c))
        A, C = mpmath.mpmathify(form.exp_a), mpmath.mpmathify(form.exp_c)
        for x in xs:
            y = mpmath.mpc(maps[form.variable.value](mpmath.mpf(float(x))))
            value = mpmath.power(y, A) * mpmath.power(1 - y, C) * \
                mpmath.hyp2f1(a, b, c, y)
            out.append(complex(value))
    return np.array(out)


def relative_error(values: np.ndarray, reference: np.ndarray) -> float:
    """max |value - reference| over max |reference| (inf if not finite)."""
    if not np.all(np.isfinite(values)):
        return math.inf
    return float(np.max(np.abs(values - reference)) / np.max(np.abs(reference)))


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    kind: str                # "small" or "table"
    argv: Tuple[str, ...]    # arguments after "python -m curved_landau.cli"
    rows: Optional[int]      # data rows the lattice requires (None: not a table)


def generate_commands(seed: int) -> List[Command]:
    """Fixed mix: three small commands (6-row h3 spectrum, 200-sample s3
    wavefunction, flat-limit verify) and two large tables (an s3
    spectrum of 40,000 rows and a 20,000-row h3 regions lattice). The
    seed draws only numbers, so each command costs about the same on
    every seed."""
    rng = np.random.default_rng([seed, 3])
    B = float(rng.choice([3.0, 4.5, 6.0, 8.0]))
    two_m = _odd(rng, 1, 7)
    small = [
        Command("small", ("spectrum", "--model", "h3", "--B", f"{B:g}",
                          "--M", "1", f"--two-m={two_m}", "--n", "0..5"), 6),
        Command("small", ("wavefunction", "--model", "s3",
                          "--component", "r1", "--B", f"{B:g}",
                          f"--two-m={two_m}", "--n", str(int(rng.integers(1, 3)))),
                200),
        Command("small", ("verify", "--suite", "flat-limit"), None),
    ]
    lo = _odd(rng, -41, -1)
    spectrum = Command("table", (
        "spectrum", "--model", "s3", "--B", f"{float(rng.choice([0.5, 1.0, 2.5])):g}",
        "--M", "1", f"--two-m={lo}..{lo + 198}", "--n", "0..39", "--nz", "0..9"),
        100 * 40 * 10)
    lo = _odd(rng, -101, -1)
    regions = Command("table", (
        "regions", "--model", "h3", "--B", f"{float(rng.choice([1.0, 2.5, 5.0])):g}",
        f"--two-m={lo}..{lo + 398}", "--n", "0..99"), 200 * 100)
    return small + [spectrum, regions]


def _rhs(model: str, variant: str, B: float, two_m: int, n: int) -> float:
    """Right-hand side of the R1 level formula for the given variant."""
    m = two_m / 2.0
    if model == "h3":
        return B - n if variant == "1" else B + m - 0.5 - n
    if variant == "1":
        return n - m + 0.5 + B
    if variant == "2":
        return B + n
    return n + m + 0.5 - B


def check_output(command: Command, code: int, out: bytes,
                 rng: np.random.Generator) -> Optional[str]:
    """None if the output passes, else the reason it fails: exit code,
    row count against the requested lattice, and lambda^2 = +-(B^2 - rhs^2)
    on 50 sampled rows."""
    if code != 0:
        return f"exit code {code}"
    text = out.decode("utf-8")
    if command.argv[0] == "verify":
        return None if "1/1 checks passed" in text else "verify did not pass"
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    if len(rows) != command.rows:
        return f"{len(rows)} rows, lattice needs {command.rows}"
    if command.argv[0] == "wavefunction":
        return None
    picks = rng.choice(len(rows), min(50, len(rows)), replace=False)
    for i in picks:
        row = rows[int(i)]
        if not row["variant"]:
            continue
        B, two_m, n = float(row["B"]), int(row["two_m"]), int(row["n"])
        rhs = _rhs(row["model"], row["variant"], B, two_m, n)
        want = B * B - rhs * rhs if row["model"] == "h3" else rhs * rhs - B * B
        got = float(row["lambda_sq"])
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            return f"lambda_sq {got!r} != {want!r} at two_m={two_m} n={n}"
    return None
