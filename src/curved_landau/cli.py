"""Command-line front end: spectrum tables, wavefunction sampling,
verification suites, and admissibility-region lattices.

Output conventions shared by the table-producing subcommands:

* ``--format csv`` (default) or ``--format json``, ``--out PATH``
  (default stdout).
* CSV files are UTF-8 with LF line endings; ``#``-prefixed metadata
  lines precede the header row. The cell rule is csv's: ``None`` is an
  empty cell, bools are ``true``/``false``, floats are written by
  ``repr`` (so parsing them back is exact) and ints by ``str``; a str
  cell is written as is unless it holds one of ``,``, ``"``, CR, LF or
  NUL, and then exactly as ``csv.writer`` (QUOTE_MINIMAL) writes it.
  JSON holds the same values.
* Runs are deterministic: identical arguments produce byte-identical
  bytes. A wall-clock stamp line is added only under ``--stamp``.
* Record order is fixed by the (two_m, n, n_z) lexicographic sort.

Exit codes: 0 success, 1 verification failures, 2 invalid arguments
(including a state outside the evaluators' domain or series range, and
arguments that need more memory than can be allocated), 3 unwritable
output, 4 inadmissible state requested.
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

from . import __version__
from . import checks
from . import spherical as sph
from ._numpy import np
from .hyp2f1 import Hyp2F1Error
from .model import Component, DomainError, Geometry

__all__ = ["main"]

_COLUMNS = ("model", "B", "M", "two_m", "n", "n_z", "variant", "lambda_sq",
            "p", "epsilon", "admissible", "violated", "unified_rhs",
            "unified_discrepancy_flag")
# the columns that vary between the rows of one (two_m, n) level
_AXIAL_SLOTS = tuple(_COLUMNS.index(c) for c in ("n_z", "p", "epsilon"))
_REGION_COLUMNS = ("model", "B", "two_m", "n", "variant", "admissible",
                   "violated", "lambda_sq", "predicate",
                   "predicate_consistent")
_WAVE_COLUMNS = ("coordinate", "re_value", "im_value")
# Output choices per --model: the r and z windows `wavefunction` samples
# (not bounds of the series), and the figure text `regions` prints.
_OUTPUT_CHOICES = {
    "h3": {"r": (1e-3, 12.0), "z": (-2.0, 2.0),
           "predicate": "|m| - |2B + m| + 2n < 0 marks the bound region",
           "zero_field_note": "B = 0: no magnetic confinement"},
    "s3": {"r": (1e-3, math.pi - 1e-3),
           "z": (-(math.pi / 2 - 0.1), math.pi / 2 - 0.1),
           "predicate": "|m| - |2B - m| + 2n > 0 marks the advertised region",
           "zero_field_note": "B = 0: curvature-only confinement"},
}


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


# csv.writer quotes a str cell only if it holds one of these; which of
# them count depends on the Python version, so such cells go to csv itself
_CSV_SPECIAL = frozenset(',"\r\n\0')


def _cell(value: object) -> str:
    """One CSV cell by the module's cell rule."""
    if value is None:
        return ""
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if not isinstance(value, str):
        return str(value)
    if _CSV_SPECIAL.isdisjoint(value):
        return value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(("", value))
    return buf.getvalue()[1:-1]


def _spelled(record: Sequence) -> list:
    # csv writes None as "" and floats by repr; only bools need spelling
    return [("true" if v else "false") if v is True or v is False else v
            for v in record]


def _level_lines(level: Sequence[tuple], varying: Sequence[int]) -> str:
    """The CSV lines of one level (see `_emit`). The cells outside
    `varying` are formatted once, from the first record, into a
    %-template; each record fills in only its varying cells. A column of
    floats fills by %r and one of ints by %s, as `_cell` writes them; any
    other column goes through `_cell`."""
    cells = [_cell(v).replace("%", "%%") for v in level[0]]
    columns = list(zip(*level))
    fills = []
    for slot in varying:
        values = columns[slot]
        kinds = set(map(type, values))
        if kinds == {float}:
            cells[slot] = "%r"
        else:
            cells[slot] = "%s"
            if kinds != {int}:
                values = list(map(_cell, values))
        fills.append(values)
    return "".join(map((",".join(cells) + "\n").__mod__, zip(*fills)))


def _render_csv(meta: Dict[str, object], columns: Sequence[str],
                records: Sequence, varying: Sequence[int] = ()) -> str:
    buf = io.StringIO()
    for key, value in meta.items():
        if value is not None:
            buf.write(f"# {key}: {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    if not varying:
        writer.writerows(map(_spelled, records))
        return buf.getvalue()
    for level in records:
        if len(level) > 1:
            buf.write(_level_lines(level, varying))
        else:  # nothing to share
            writer.writerow(_spelled(level[0]))
    return buf.getvalue()


def _render_json(meta: Dict[str, object], columns: Sequence[str],
                 records: Sequence, varying: Sequence[int] = ()) -> str:
    if varying:
        records = [record for level in records for record in level]
    payload = {"meta": meta, "columns": list(columns),
               "records": [dict(zip(columns, r)) for r in records]}
    return json.dumps(payload, indent=2) + "\n"


def _emit(args, meta: Dict[str, object], columns: Sequence[str],
          records: Sequence, varying: Sequence[int] = ()) -> int:
    """Write records (tuples in `columns` order) under the generator and
    command header and the subcommand's metadata. With `varying` (indices
    of columns), the records come grouped in levels: lists of records
    that agree on every column outside `varying`, so that the CSV
    formats those shared cells once per level."""
    meta = {"generator": f"curved-landau {__version__}",
            "command": args.subcommand, **meta}
    if args.stamp:
        meta["stamp"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds")
    render = _render_csv if args.format == "csv" else _render_json
    text = render(meta, columns, records, varying)
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
    try:
        rho_sq = rho ** 2
    except OverflowError:
        rho_sq = math.inf
    if not 0.0 < rho_sq < math.inf:
        raise DomainError(f"--rho {rho!r}: rho^2 is not a finite positive float")
    geo = Geometry(args.model).record
    levels = []
    for two_m in two_ms:
        for n in ns:
            audit = geo.audit(two_m, args.B, n)
            entry = audit.entry
            lam_sq = entry.lambda_sq
            scaled_sq = lam_sq / rho_sq if lam_sq is not None else None
            finite_sq = scaled_sq is None or math.isfinite(scaled_sq)
            # n_z is set on s3 only
            lam = (math.sqrt(lam_sq)
                   if n_zs[0] is not None and entry.admissible else None)
            variant = entry.variant.value if entry.variant else None
            level = []
            for n_z in n_zs:
                p = epsilon = None
                if lam is not None:
                    p = sph.s3_axial_quantize(lam, n_z)
                    if args.M > 0.0:
                        epsilon = sph.s3_total_energy(args.M, p) / rho
                    p /= rho
                if not (finite_sq and (p is None or math.isfinite(p))
                        and (epsilon is None or math.isfinite(epsilon))):
                    raise DomainError(f"--rho {rho!r}: the scaled lambda_sq, p "
                                      f"or epsilon of two_m={two_m}, n={n} is "
                                      f"not finite")
                level.append((
                    args.model, args.B, args.M, two_m, n, n_z, variant,
                    scaled_sq, p, epsilon, entry.admissible, entry.violated,
                    audit.unified_rhs, audit.flagged))
            levels.append(level)
    meta = {
        "model": args.model,
        "B": args.B,
        "M": args.M,
        "rho": rho,
        "two_m": args.two_m,
        "n": args.n,
        "nz": args.nz,
    }
    return _emit(args, meta, _COLUMNS, levels, _AXIAL_SLOTS)


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
    coordinate = "r" if radial else "z"
    window = _OUTPUT_CHOICES[args.model][coordinate]
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
            audit = geo.audit(two_m, args.B, n)
            entry = audit.entry
            records.append((
                args.model, args.B, two_m, n,
                entry.variant.value if entry.variant else None,
                entry.admissible, entry.violated, entry.lambda_sq,
                audit.predicate, audit.predicate_consistent))
    meta = {
        "model": args.model,
        "B": args.B,
        "two_m": args.two_m,
        "n": args.n,
        "predicate": _OUTPUT_CHOICES[args.model]["predicate"],
    }
    if args.B < 0.0:
        meta["note"] = ("reflection (m, B) -> (-m, -B) applied for B < 0; "
                        "verdicts belong to the reflected R2 problem")
    elif args.B == 0.0:
        meta["note"] = _OUTPUT_CHOICES[args.model]["zero_field_note"]
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
    *others, last = checks.FIXED_THRESHOLDS
    verify.add_argument("--tol", type=float, default=None,
                        help="tolerance override (finite, > 0) for every "
                             "check but the four with fixed thresholds: "
                             f"{', '.join(others)} and {last}")
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
    except MemoryError as exc:  # e.g. --samples or a range too large to hold
        detail = str(exc)
        print("error: the arguments need more memory than can be allocated"
              + (f": {detail}" if detail else ""), file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
