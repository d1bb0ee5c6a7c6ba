"""Command-line front end: spectrum tables, wavefunction sampling,
verification suites, and admissibility-region lattices.

Output conventions shared by the table-producing subcommands:

* ``--format csv`` (default) or ``--format json``, ``--out PATH``
  (default stdout).
* CSV files are UTF-8 with LF line endings; ``#``-prefixed metadata
  lines precede the header row; floats are emitted with ``repr`` so
  parsing them back is exact.
* Runs are deterministic: identical arguments produce byte-identical
  bytes. A wall-clock stamp line is added only under ``--stamp``.
* Record order is fixed by the (two_m, n, n_z) lexicographic sort.

Exit codes: 0 success, 1 verification failures, 2 invalid arguments
(including a state outside the evaluators' domain or series range),
3 unwritable output, 4 inadmissible state requested.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from . import checks
from . import spherical as sph
from .hyp2f1 import Hyp2F1Error
from .model import Component, DomainError, Geometry

__all__ = ["main"]

_COLUMNS = ("model", "B", "M", "two_m", "n", "n_z", "variant", "lambda_sq",
            "p", "epsilon", "admissible", "violated", "unified_rhs",
            "unified_discrepancy_flag")
_REGION_COLUMNS = ("model", "B", "two_m", "n", "variant", "admissible",
                   "violated", "lambda_sq", "predicate",
                   "predicate_consistent")
_WAVE_COLUMNS = ("coordinate", "re_value", "im_value")


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------


def _parse_range(parser: argparse.ArgumentParser, text: str, flag: str,
                 odd: bool = False, minimum: Optional[int] = None) -> List[int]:
    """Inclusive integer range: "3" or "0..5"."""
    match = re.fullmatch(r"(-?\d+)(?:\.\.(-?\d+))?", text)
    if match is None:
        parser.error(f"{flag}: expected INT or LO..HI, got {text!r}")
    lo = int(match.group(1))
    hi = int(match.group(2)) if match.group(2) is not None else lo
    if hi < lo:
        parser.error(f"{flag}: empty range {text!r}")
    values = list(range(lo, hi + 1))
    if odd:
        values = [v for v in values if v % 2 != 0]
        if not values:
            parser.error(f"{flag}: needs odd values (twice a half-integer), "
                         f"got {text!r}")
    if minimum is not None and values[0] < minimum:
        parser.error(f"{flag}: values must be >= {minimum}")
    return values


def _finite_float(text: str) -> float:
    """argparse type of the physical parameters: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _single_odd(parser: argparse.ArgumentParser, text: str, flag: str) -> int:
    values = _parse_range(parser, text, flag, odd=True)
    if len(values) != 1:
        parser.error(f"{flag}: exactly one odd value expected, got {text!r}")
    return values[0]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _render_csv(meta: Dict[str, object], columns: Sequence[str],
                records: Sequence[tuple]) -> str:
    buf = io.StringIO()
    for key, value in meta.items():
        if value is not None:
            buf.write(f"# {key}: {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    # csv writes None as "" and floats by repr; only bools need spelling
    writer.writerows(
        [("true" if v else "false") if v is True or v is False else v
         for v in record]
        for record in records)
    return buf.getvalue()


def _render_json(meta: Dict[str, object], columns: Sequence[str],
                 records: Sequence[tuple]) -> str:
    payload = {"meta": meta, "columns": list(columns),
               "records": [dict(zip(columns, r)) for r in records]}
    return json.dumps(payload, indent=2) + "\n"


def _emit(args, meta: Dict[str, object], columns: Sequence[str],
          records: Sequence[tuple]) -> int:
    """Write records (tuples in `columns` order) under the generator and
    command header and the subcommand's metadata."""
    meta = {"generator": f"curved-landau {__version__}",
            "command": args.subcommand, **meta}
    if args.stamp:
        meta["stamp"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds")
    text = (_render_csv(meta, columns, records) if args.format == "csv"
            else _render_json(meta, columns, records))
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def _cmd_spectrum(args, parser: argparse.ArgumentParser) -> int:
    two_ms = _parse_range(parser, args.two_m, "--two-m", odd=True)
    ns = _parse_range(parser, args.n, "--n", minimum=0)
    n_zs: List[Optional[int]] = [None]
    if args.nz is not None:
        if args.model == "h3":
            parser.error("--nz applies to the spherical model only; the "
                         "hyperbolic axial momentum stays continuous")
        n_zs = list(_parse_range(parser, args.nz, "--nz", minimum=0))
    if args.rho <= 0.0:
        parser.error("--rho must be > 0")
    if args.M < 0.0:
        parser.error("--M must be >= 0")
    rho = args.rho
    geo = Geometry(args.model).record
    records = []
    for two_m in two_ms:
        for n in ns:
            entry = geo.quantize(two_m, args.B, n, Component.R1)
            unified = geo.unified_report(two_m, args.B, n)
            lam_sq = entry.lambda_sq
            for n_z in n_zs:
                p = epsilon = None
                # n_z is set on s3 only
                if n_z is not None and entry.admissible:
                    lam = math.sqrt(lam_sq)
                    p = sph.s3_axial_quantize(lam, n_z) / rho
                    if args.M > 0.0:
                        epsilon = sph.s3_total_energy(args.M, lam, n_z) / rho
                records.append((
                    args.model, args.B, args.M, two_m, n, n_z,
                    entry.variant.value if entry.variant else None,
                    lam_sq / rho ** 2 if lam_sq is not None else None,
                    p, epsilon, entry.admissible, entry.violated,
                    unified.unified_rhs, unified.flagged))
    meta = {
        "model": args.model,
        "B": args.B,
        "M": args.M,
        "rho": rho,
        "two_m": args.two_m,
        "n": args.n,
        "nz": args.nz,
    }
    return _emit(args, meta, _COLUMNS, records)


# ---------------------------------------------------------------------------
# wavefunction
# ---------------------------------------------------------------------------


def _cmd_wavefunction(args, parser: argparse.ArgumentParser) -> int:
    component = Component(args.component)
    two_m = _single_odd(parser, args.two_m, "--two-m")
    if args.n < 0:
        parser.error("--n must be >= 0")
    if args.samples < 2:
        parser.error("--samples must be >= 2")
    if args.model == "s3" and args.p is not None:
        parser.error("--p applies to the hyperbolic model only (s3 takes --nz)")
    if args.model == "h3" and args.nz is not None:
        parser.error("--nz applies to the spherical model only (h3 takes --p)")
    radial = component in (Component.R1, Component.R2)
    if radial and (args.nz is not None or args.p is not None):
        parser.error("--nz/--p apply to axial components only")
    geo = Geometry(args.model).record
    entry = geo.quantize(two_m, args.B, args.n,
                         component if radial else Component.R1)
    if not entry.admissible:
        reason = entry.violated or "no admissible variant"
        print(f"error: state (two_m={two_m}, n={args.n}, B={args.B}) is "
              f"not a bound state: {reason}", file=sys.stderr)
        return 4
    lam_sq = entry.lambda_sq
    meta_extra: Dict[str, object] = {}
    if radial:
        solution = geo.radial_solution(two_m, args.B, lam_sq, component,
                                       entry.variant)
        window, coordinate = geo.r_window, "r"
    else:
        lam = math.sqrt(lam_sq)
        if args.p is not None:
            if args.p <= 0.0:
                parser.error("--p must be > 0")
            p = args.p
        elif args.nz is not None:
            if args.nz < 0:
                parser.error("--nz must be >= 0")
            p = sph.s3_axial_quantize(lam, args.nz)
            meta_extra["nz"] = args.nz
        else:
            parser.error("axial components need --p on h3 (the momentum is "
                         "continuous) or --nz on s3 (it is quantized)")
        meta_extra["p"] = p
        solution = geo.axial_solution(p, lam, component)
        window, coordinate = geo.z_window, "z"
    xs = np.linspace(window[0], window[1], args.samples)
    values = solution.evaluate(xs)
    records = [(float(x), float(v.real), float(v.imag))
               for x, v in zip(xs, values)]
    meta = {
        "model": args.model,
        "component": component.value,
        "B": args.B,
        "two_m": two_m,
        "n": args.n,
        "variant": entry.variant.value if entry.variant else None,
        "lambda_sq": lam_sq,
        **meta_extra,
        "coordinate": coordinate,
        "window": f"{window[0]}..{window[1]}",
        "samples": args.samples,
    }
    return _emit(args, meta, _WAVE_COLUMNS, records)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    suites = args.suite or ["all"]
    try:
        results = checks.run_suites(suites, tol=args.tol)
    except DomainError as exc:
        parser.error(str(exc))
    width = max(len(r.name) for r in results)
    for r in results:
        line = (f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  "
                f"value={r.value:.6g}  threshold={r.threshold:.6g}")
        if r.detail:
            line += f"  ({r.detail})"
        print(line)
    failures = [r for r in results if not r.passed]
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    if failures:
        worst = max(failures, key=lambda r: r.value / r.threshold)
        print(f"worst offender: {worst.name} "
              f"(value {worst.value:.6g}, threshold {worst.threshold:.6g})",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


def _cmd_regions(args, parser: argparse.ArgumentParser) -> int:
    two_ms = _parse_range(parser, args.two_m, "--two-m", odd=True)
    ns = _parse_range(parser, args.n, "--n", minimum=0)
    geo = Geometry(args.model).record
    records = []
    for two_m in two_ms:
        for n in ns:
            verdict = geo.admissibility_region(args.B, two_m, n)
            records.append((
                args.model, args.B, two_m, n,
                verdict.variant.value if verdict.variant else None,
                verdict.admissible, verdict.violated, verdict.lambda_sq,
                verdict.predicate, verdict.predicate_consistent))
    meta = {
        "model": args.model,
        "B": args.B,
        "two_m": args.two_m,
        "n": args.n,
        "predicate": geo.region_predicate,
    }
    if args.B < 0.0:
        meta["note"] = ("reflection (m, B) -> (-m, -B) applied for B < 0; "
                        "verdicts belong to the reflected R2 problem")
    elif args.B == 0.0:
        meta["note"] = geo.zero_field_note
    return _emit(args, meta, _REGION_COLUMNS, records)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default csv)")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="output file (default stdout)")
    sub.add_argument("--stamp", action="store_true",
                     help="add a wall-clock metadata line (off by default "
                          "so identical runs are byte-identical)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curved-landau",
        description="Bound states of a charged spin-1/2 particle in a "
                    "uniform magnetic field on hyperbolic (h3) and "
                    "spherical (s3) 3-spaces.")
    parser.add_argument("--version", action="version",
                        version=f"curved-landau {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    models = [g.value for g in Geometry]

    spectrum = subs.add_parser(
        "spectrum", help="quantized transversal levels over quantum-number "
                         "ranges, with admissibility verdicts")
    spectrum.add_argument("--model", choices=models, required=True)
    spectrum.add_argument("--B", type=_finite_float, required=True,
                          help="magnetic field in curvature units")
    spectrum.add_argument("--M", type=_finite_float, default=0.0,
                          help="mass (s3 energies need M > 0; default 0)")
    spectrum.add_argument("--two-m", required=True, metavar="INT|LO..HI",
                          help="twice the angular quantum number m (odd)")
    spectrum.add_argument("--n", required=True, metavar="INT|LO..HI",
                          help="radial level index range")
    spectrum.add_argument("--nz", default=None, metavar="INT|LO..HI",
                          help="axial level index range (s3 only)")
    spectrum.add_argument("--rho", type=_finite_float, default=1.0,
                          help="curvature radius: reported lambda_sq scales "
                               "by 1/rho^2, p and epsilon by 1/rho")
    _add_output_flags(spectrum)
    spectrum.set_defaults(func=_cmd_spectrum)

    wave = subs.add_parser(
        "wavefunction", help="sample one solution component on its "
                             "coordinate window")
    wave.add_argument("--model", choices=models, required=True)
    wave.add_argument("--component", choices=[c.value for c in Component],
                      required=True)
    wave.add_argument("--B", type=_finite_float, required=True)
    wave.add_argument("--two-m", required=True, metavar="INT")
    wave.add_argument("--n", type=int, required=True,
                      help="radial level index (sets lambda^2)")
    wave.add_argument("--nz", type=int, default=None,
                      help="axial level index (s3 axial components)")
    wave.add_argument("--p", type=_finite_float, default=None,
                      help="axial momentum (h3 axial components; continuous)")
    wave.add_argument("--samples", type=int, default=200)
    _add_output_flags(wave)
    wave.set_defaults(func=_cmd_wavefunction)

    verify = subs.add_parser(
        "verify", help="run numerical verification suites")
    verify.add_argument("--suite", action="append", default=None,
                        metavar="|".join(checks.SUITE_NAMES + ("all",)),
                        help="suite to run (repeatable; default all)")
    verify.add_argument("--tol", type=float, default=None,
                        help="tolerance override (finite, > 0) for every "
                             "check but the four with fixed thresholds: "
                             "axial/s3-quantization-exact, axial/h3-fd-order, "
                             "pairs/h3-scaled-factor-rejected and "
                             "commutator/flat-fault-detected")
    verify.set_defaults(func=_cmd_verify)

    regions = subs.add_parser(
        "regions", help="admissibility lattice over (two_m, n) as "
                        "scatter data")
    regions.add_argument("--model", choices=models, required=True)
    regions.add_argument("--B", type=_finite_float, required=True)
    regions.add_argument("--two-m", required=True, metavar="INT|LO..HI")
    regions.add_argument("--n", required=True, metavar="INT|LO..HI")
    _add_output_flags(regions)
    regions.set_defaults(func=_cmd_regions)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, parser)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else (0 if code is None
                                                        else 2)
    except (DomainError, Hyp2F1Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
