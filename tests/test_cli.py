"""End-to-end tests of the command-line interface: table contents,
serialization round-trips, determinism, and the exit-code contract."""

import csv
import io
import json
import math

import mpmath
import pytest

from curved_landau import cli
from curved_landau.model import GeometryRecord


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = next(csv.reader([line]))
        else:
            rows.append(next(csv.reader([line])))
    return meta, header, rows


_FLOAT_COLUMNS = {"B", "M", "lambda_sq", "p", "epsilon", "unified_rhs",
                  "predicate", "coordinate", "re_value", "im_value"}
_INT_COLUMNS = {"two_m", "n", "n_z"}
_BOOL_COLUMNS = {"admissible", "unified_discrepancy_flag",
                 "predicate_consistent"}


def _typed(column, cell):
    if cell == "":
        return None
    if column in _FLOAT_COLUMNS:
        return float(cell)
    if column in _INT_COLUMNS:
        return int(cell)
    if column in _BOOL_COLUMNS:
        return {"true": True, "false": False}[cell]
    return cell


def _csv_records(text):
    meta, header, rows = _parse_csv(text)
    return meta, header, [
        {col: _typed(col, cell) for col, cell in zip(header, row)}
        for row in rows
    ]


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_h3_ladder(capsys):
    code, out, _ = _run(capsys, [
        "spectrum", "--model", "h3", "--B", "5", "--M", "1",
        "--two-m", "1", "--n", "0..5"])
    assert code == 0
    meta, header, records = _csv_records(out)
    assert list(header) == list(cli._COLUMNS)
    assert meta["command"] == "spectrum"
    assert len(records) == 6
    lam_sqs = [r["lambda_sq"] for r in records]
    assert lam_sqs == [0.0, 9.0, 16.0, 21.0, 24.0, 25.0]
    flags = [r["admissible"] for r in records]
    assert flags == [False, True, True, True, True, False]
    assert records[0]["violated"] == "lambda_sq > 0"
    assert "n < B" in records[5]["violated"]
    for r in records[1:5]:
        assert r["violated"] is None
        assert r["p"] is None and r["epsilon"] is None  # h3: no axial level
        assert r["n_z"] is None
        assert r["unified_discrepancy_flag"] is False
    assert "\r" not in out  # LF only


@pytest.mark.parametrize("model, nz", [("h3", None), ("s3", "0..2")])
def test_spectrum_quantizes_each_level_once(capsys, monkeypatch, model, nz):
    # every level goes through the one level rule, a two_m column per
    # call: each (two_m, n) once, never once per n_z row
    calls = []
    levels = GeometryRecord._levels

    def counted(self, two_m, B, ns, component):
        calls.extend((two_m, n) for n in ns)
        return levels(self, two_m, B, ns, component)

    monkeypatch.setattr(GeometryRecord, "_levels", counted)
    argv = ["spectrum", "--model", model, "--B", "2.5", "--two-m=-3..3",
            "--n", "0..4"] + (["--nz", nz] if nz else [])
    code, _, _ = _run(capsys, argv)
    assert code == 0
    assert sorted(calls) == [(two_m, n) for two_m in (-3, -1, 1, 3)
                             for n in range(5)]


def test_spectrum_sorted_and_odd_only(capsys):
    code, out, _ = _run(capsys, [
        "spectrum", "--model", "h3", "--B", "5", "--M", "0",
        "--two-m=-3..3", "--n", "1..2"])
    assert code == 0
    _, _, records = _csv_records(out)
    keys = [(r["two_m"], r["n"]) for r in records]
    assert keys == sorted(keys)
    assert sorted({r["two_m"] for r in records}) == [-3, -1, 1, 3]


def test_spectrum_s3_axial_and_energy(capsys):
    code, out, _ = _run(capsys, [
        "spectrum", "--model", "s3", "--B", "1", "--M", "1",
        "--two-m", "1", "--n", "1", "--nz", "0..1"])
    assert code == 0
    _, _, records = _csv_records(out)
    assert len(records) == 2
    lam = math.sqrt(3.0)
    first = records[0]
    assert first["lambda_sq"] == pytest.approx(3.0, abs=1e-14)
    assert first["p"] == pytest.approx(lam + 0.5, abs=1e-14)
    assert first["epsilon"] == pytest.approx(
        math.sqrt(1.0 + (lam + 0.5) ** 2), abs=1e-14)
    second = records[1]
    assert second["n_z"] == 1
    assert second["p"] == pytest.approx(lam + 1.5, abs=1e-14)


def test_spectrum_rho_rescaling(capsys):
    base_code, base_out, _ = _run(capsys, [
        "spectrum", "--model", "s3", "--B", "1", "--M", "1",
        "--two-m", "1", "--n", "1", "--nz", "0"])
    scaled_code, scaled_out, _ = _run(capsys, [
        "spectrum", "--model", "s3", "--B", "1", "--M", "1",
        "--two-m", "1", "--n", "1", "--nz", "0", "--rho", "10"])
    assert base_code == scaled_code == 0
    _, _, base = _csv_records(base_out)
    _, _, scaled = _csv_records(scaled_out)
    assert scaled[0]["lambda_sq"] == pytest.approx(
        base[0]["lambda_sq"] / 100.0, rel=1e-15)
    assert scaled[0]["p"] == pytest.approx(base[0]["p"] / 10.0, rel=1e-15)
    assert scaled[0]["epsilon"] == pytest.approx(
        base[0]["epsilon"] / 10.0, rel=1e-15)


def test_spectrum_unified_flags_on_negative_m(capsys):
    code, out, _ = _run(capsys, [
        "spectrum", "--model", "h3", "--B", "5", "--two-m=-5..5",
        "--n", "1"])
    assert code == 0
    _, _, records = _csv_records(out)
    for r in records:
        assert r["unified_discrepancy_flag"] is (r["two_m"] < 0)


# ---------------------------------------------------------------------------
# serialization round-trips and determinism
# ---------------------------------------------------------------------------


_RT_ARGS = ["spectrum", "--model", "s3", "--B", "1", "--M", "1",
            "--two-m=-3..3", "--n", "0..3", "--nz", "0..1"]


# inadmissible levels (empty p and epsilon), B < 0, --rho 3 and --M 0
_ROUND_TRIPS = [
    _RT_ARGS,
    ["spectrum", "--model", "s3", "--B", "2.5", "--M", "0", "--rho", "3",
     "--two-m=-5..9", "--n", "0..3", "--nz", "0..2"],
    ["spectrum", "--model", "s3", "--B", "-2", "--M", "1.5", "--rho", "3",
     "--two-m=-5..5", "--n", "0..3", "--nz", "0..2"],
    ["spectrum", "--model", "h3", "--B", "-4", "--M", "0", "--rho", "3",
     "--two-m=-7..7", "--n", "0..5"],
]


def test_csv_json_round_trip(capsys):
    for argv in _ROUND_TRIPS:
        csv_code, csv_out, _ = _run(capsys, argv)
        json_code, json_out, _ = _run(capsys, argv + ["--format", "json"])
        assert csv_code == json_code == 0
        _, columns, csv_records = _csv_records(csv_out)
        payload = json.loads(json_out)
        assert set(payload) == {"meta", "columns", "records"}
        assert payload["columns"] == list(columns)
        assert len(payload["records"]) == len(csv_records)
        # both formats write floats by repr, so every cell reads back
        # exactly
        for via_csv, via_json in zip(csv_records, payload["records"]):
            assert via_csv == via_json, argv
            for column in columns:
                assert type(via_csv[column]) is type(via_json[column]), column


_AWKWARD = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "nul\0x",
            "100%", "%s %r %%", "", " padded ", "ünï"]


@pytest.mark.parametrize("text", _AWKWARD)
def test_level_cells_are_written_as_csv_writes_them(text):
    """Cells formatted once per level read as csv.writer writes them,
    str cells with a delimiter, a quote, CR, LF, NUL or % included,
    whether a cell is shared or varies within its level."""
    columns = ("name", "k", "note", "x", "flag", "tail")
    varying = (1, 3, 4)
    levels = [
        [(text, k, text, 0.1 * k, k % 2 == 0, None) for k in range(3)],
        [("s", 7, None, x, None, text) for x in (1.5, None, 2.0)],
        [(text, k, 3, text, True, 2.5) for k in (0, 1)],
        [(None, "k", "v", -0.0, False, 1e300)],
        # an all-None varying column: one shared empty cell
        [(text, k, text, 0.5 * k, None, 100) for k in range(3)],
        # an int column holding a bool is written row by row
        [(text, k, None, 2.0, 7, text) for k in (0, True, 2)],
    ]
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(columns)
    try:
        for level in levels:
            writer.writerows(
                [("true" if v else "false") if isinstance(v, bool) else v
                 for v in record] for record in level)
    except csv.Error:  # Python 3.10 refuses NUL without an escapechar
        with pytest.raises(csv.Error):
            cli._render_csv({}, columns, levels, varying)
        return
    assert cli._render_csv({}, columns, levels, varying) == expected.getvalue()


def test_identical_runs_byte_identical(tmp_path, capsys):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(_RT_ARGS + ["--out", str(first)]) == 0
    assert cli.main(_RT_ARGS + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_stamp_is_opt_in(capsys):
    _, plain, _ = _run(capsys, ["regions", "--model", "h3", "--B", "5",
                                "--two-m", "1", "--n", "0"])
    assert "# stamp:" not in plain
    _, stamped, _ = _run(capsys, ["regions", "--model", "h3", "--B", "5",
                                  "--two-m", "1", "--n", "0", "--stamp"])
    assert "# stamp:" in stamped
    code, json_out, _ = _run(capsys, ["regions", "--model", "h3", "--B", "5",
                                      "--two-m", "1", "--n", "0", "--stamp",
                                      "--format", "json"])
    assert code == 0
    assert "stamp" in json.loads(json_out)["meta"]


# ---------------------------------------------------------------------------
# wavefunction
# ---------------------------------------------------------------------------


def test_wavefunction_h3_radial_decays(capsys):
    code, out, _ = _run(capsys, [
        "wavefunction", "--model", "h3", "--component", "r1",
        "--B", "5", "--two-m", "1", "--n", "1", "--samples", "400"])
    assert code == 0
    meta, header, records = _csv_records(out)
    assert list(header) == ["coordinate", "re_value", "im_value"]
    assert len(records) == 400
    assert meta["lambda_sq"] == "9.0"
    mags = [math.hypot(r["re_value"], r["im_value"]) for r in records]
    assert max(mags) > 0.0
    assert mags[-1] <= 1e-6 * max(mags)  # bound state decays by r = 12


def test_wavefunction_s3_axial_polynomial(capsys):
    code, out, _ = _run(capsys, [
        "wavefunction", "--model", "s3", "--component", "z1",
        "--B", "1", "--two-m", "1", "--n", "1", "--nz", "0",
        "--samples", "64"])
    assert code == 0
    meta, _, records = _csv_records(out)
    assert float(meta["p"]) == pytest.approx(math.sqrt(3.0) + 0.5)
    assert len(records) == 64
    assert all(math.isfinite(r["re_value"]) and math.isfinite(r["im_value"])
               for r in records)
    assert max(math.hypot(r["re_value"], r["im_value"])
               for r in records) > 0.0


def test_wavefunction_h3_axial_needs_p(capsys):
    code, _, _ = _run(capsys, [
        "wavefunction", "--model", "h3", "--component", "z1",
        "--B", "5", "--two-m", "1", "--n", "1"])
    assert code == 2
    code, out, _ = _run(capsys, [
        "wavefunction", "--model", "h3", "--component", "z1",
        "--B", "5", "--two-m", "1", "--n", "1", "--p", "0.7",
        "--samples", "32"])
    assert code == 0
    _, _, records = _csv_records(out)
    assert len(records) == 32


def test_wavefunction_refuses_p_on_s3(capsys):
    code, out, err = _run(capsys, [
        "wavefunction", "--model", "s3", "--component", "z1",
        "--B", "2.5", "--two-m", "1", "--n", "1", "--nz", "2", "--p", "0.7"])
    assert code == 2
    assert out == ""
    assert "--p applies to the hyperbolic model only" in err


def test_wavefunction_refuses_nz_on_h3(capsys):
    code, out, err = _run(capsys, [
        "wavefunction", "--model", "h3", "--component", "z1",
        "--B", "5", "--two-m", "1", "--n", "1", "--p", "0.7", "--nz", "3"])
    assert code == 2
    assert out == ""
    assert "--nz applies to the spherical model only" in err


@pytest.mark.parametrize("argv", [
    ["--model", "s3", "--component", "r1", "--B", "2.5", "--two-m=1",
     "--n", "1", "--nz", "3"],
    ["--model", "h3", "--component", "r2", "--B", "5", "--two-m=3",
     "--n", "1", "--p", "0.7"],
], ids=["s3-r1-nz", "h3-r2-p"])
def test_wavefunction_refuses_axial_flags_on_radial_components(capsys, argv):
    code, out, err = _run(capsys, ["wavefunction"] + argv)
    assert code == 2
    assert out == ""
    assert "--nz/--p apply to axial components only" in err


def test_wavefunction_inadmissible_state_exit_4(capsys):
    code, out, err = _run(capsys, [
        "wavefunction", "--model", "h3", "--component", "r1",
        "--B", "5", "--two-m", "1", "--n", "7"])
    assert code == 4
    assert out == ""
    assert "not a bound state" in err


def test_wavefunction_components_of_an_s3_strip_state_read_one_level(capsys):
    # 2B = 7.4, m = 7.5: r2 read 8.4 here, another pair's level than r1's
    levels = []
    for component in ("r1", "r2"):
        code, out, _ = _run(capsys, [
            "wavefunction", "--model", "s3", "--component", component,
            "--B", "3.7", "--two-m=15", "--n", "0", "--samples", "8"])
        assert code == 0
        levels.append(_csv_records(out)[0]["lambda_sq"])
    assert levels[0] == levels[1]
    assert float(levels[0]) == pytest.approx(4.8)


def test_wavefunction_r2_at_the_s3_tie_column_exits_2(capsys):
    # m = 2B: both components quantize the pair (3, 1'), but 1' has A = 0
    # there; r2 printed variant 4''s form at lambda_sq 3.5
    argv = ["wavefunction", "--model", "s3", "--B", "1.25", "--two-m=5",
            "--n", "0", "--samples", "8", "--component"]
    code, out, _ = _run(capsys, argv + ["r1"])
    assert code == 0
    assert _csv_records(out)[0]["lambda_sq"] == "1.5"
    code, out, err = _run(capsys, argv + ["r2"])
    assert code == 2
    assert out == ""
    assert err == "error: variant 1p: exponents A = 0.0, C = 1.75 must be > 0\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_suite_passes(capsys):
    code, out, err = _run(capsys, ["verify", "--suite", "flat-limit"])
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "checks passed" in out
    assert err == ""


def test_verify_failure_names_worst_offender(capsys):
    code, out, err = _run(capsys, ["verify", "--suite", "flat-limit",
                                   "--tol", "1e-18"])
    assert code == 1
    assert "FAIL" in out
    assert "worst offender" in err
    assert "flat-limit" in err


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_verify_rejects_a_tolerance_that_is_not_positive(capsys, tol):
    code, out, err = _run(capsys, ["verify", "--suite", "flat-limit",
                                   f"--tol={tol}"])
    assert code == 2
    assert out == ""
    assert "tol" in err


def test_verify_unknown_suite_rejected(capsys):
    code, _, err = _run(capsys, ["verify", "--suite", "astrology"])
    assert code == 2
    assert "astrology" in err


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


def test_regions_flags_border_inconsistency(capsys):
    code, out, _ = _run(capsys, [
        "regions", "--model", "h3", "--B", "5", "--two-m", "1",
        "--n", "0..5"])
    assert code == 0
    meta, header, records = _csv_records(out)
    assert list(header) == list(cli._REGION_COLUMNS)
    assert "predicate" in meta
    by_n = {r["n"]: r for r in records}
    # n = 0 sits strictly inside the advertised region yet fails the
    # lambda^2 > 0 check: the lattice must expose the disagreement
    assert by_n[0]["predicate"] < 0 and by_n[0]["admissible"] is False
    assert by_n[0]["predicate_consistent"] is False
    for n in (1, 2, 3, 4):
        assert by_n[n]["predicate_consistent"] is True


def test_regions_reflection_note(capsys):
    code, out, _ = _run(capsys, [
        "regions", "--model", "s3", "--B=-2", "--two-m", "1", "--n", "0"])
    assert code == 0
    meta, _, _ = _csv_records(out)
    assert "reflection" in meta.get("note", "")


# ---------------------------------------------------------------------------
# argument and output failures
# ---------------------------------------------------------------------------


def test_even_two_m_rejected(capsys):
    code, _, err = _run(capsys, [
        "spectrum", "--model", "h3", "--B", "5", "--two-m", "2",
        "--n", "1"])
    assert code == 2
    assert "odd" in err


def test_nz_rejected_for_h3(capsys):
    code, _, err = _run(capsys, [
        "spectrum", "--model", "h3", "--B", "5", "--two-m", "1",
        "--n", "1", "--nz", "0"])
    assert code == 2
    assert "spherical" in err


def test_bad_range_syntax_rejected(capsys):
    code, _, _ = _run(capsys, [
        "spectrum", "--model", "h3", "--B", "5", "--two-m", "1",
        "--n", "3..1"])
    assert code == 2


_H3_AXIAL = ["wavefunction", "--model", "h3", "--component", "z1", "--B", "5",
             "--two-m", "1", "--n", "1"]
_S3_AXIAL = ["wavefunction", "--model", "s3", "--component", "z1", "--B", "2",
             "--two-m", "1", "--n", "1"]


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--model", "h3", "--B", "5", "--two-m", "1", "--n", "a..b"],
     "--n: expected INT or LO..HI, got 'a..b'"),
    (["regions", "--model", "h3", "--B", "5", "--two-m", "1", "--n=-2..3"],
     "--n: values must be >= 0"),
    (["spectrum", "--model", "h3", "--B", "five", "--two-m", "1", "--n", "1"],
     "argument --B: invalid float value: 'five'"),
    (["wavefunction", "--model", "h3", "--component", "r1", "--B", "5",
      "--two-m", "1..3", "--n", "1"],
     "--two-m: exactly one odd value expected, got '1..3'"),
    (["spectrum", "--model", "h3", "--B", "5", "--two-m", "1", "--n", "1",
      "--rho", "0"], "--rho must be > 0"),
    (["spectrum", "--model", "s3", "--B", "1", "--M", "-1", "--two-m", "1",
      "--n", "1"], "--M must be >= 0"),
    (["wavefunction", "--model", "h3", "--component", "r1", "--B", "5",
      "--two-m", "1", "--n", "-1"], "--n must be >= 0"),
    (["wavefunction", "--model", "h3", "--component", "r1", "--B", "5",
      "--two-m", "1", "--n", "1", "--samples", "1"], "--samples must be >= 2"),
    (_H3_AXIAL + ["--p", "0"], "--p must be > 0"),
    (_S3_AXIAL + ["--nz", "-1"], "--nz must be >= 0"),
], ids=["range-syntax", "range-minimum", "B-not-a-float", "two-m-several",
        "rho-0", "M-negative", "wavefunction-n-negative", "samples-1",
        "p-0", "nz-negative"])
def test_refused_arguments_exit_2_with_their_message(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.endswith(f"error: {message}\n")
    assert "Traceback" not in err


def test_a_closed_stdout_exits_0(capsys, monkeypatch):
    # a reader that stops early (curved-landau spectrum ... | head) closes
    # the pipe: the run ends quietly instead of with a traceback
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    code = cli.main(["regions", "--model", "h3", "--B", "5", "--two-m", "1",
                     "--n", "0..2"])
    monkeypatch.undo()
    assert code == 0
    assert capsys.readouterr().err == ""


def test_unwritable_output_exit_3(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.csv"
    code, _, err = _run(capsys, [
        "spectrum", "--model", "h3", "--B", "5", "--two-m", "1",
        "--n", "1", "--out", str(target)])
    assert code == 3
    assert "cannot write" in err


def test_missing_subcommand_exit_2(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Fields and evaluator failures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["spectrum", "--model", "h3", "--B", "nan", "--two-m", "1", "--n", "0..2"],
    ["spectrum", "--model", "h3", "--B", "1e308", "--two-m", "1", "--n", "0..2"],
    ["spectrum", "--model", "h3", "--B", "5", "--rho", "nan", "--two-m", "1",
     "--n", "0..2"],
    ["spectrum", "--model", "h3", "--B", "5", "--rho", "inf", "--two-m", "1",
     "--n", "0..2"],
    ["spectrum", "--model", "s3", "--B", "1", "--M", "nan", "--two-m", "1",
     "--n", "1", "--nz", "0"],
    ["regions", "--model", "s3", "--B", "nan", "--two-m", "1", "--n", "0..2"],
    ["regions", "--model", "h3", "--B=-1e200", "--two-m", "1", "--n", "0..2"],
    ["wavefunction", "--model", "h3", "--component", "z1", "--B", "5",
     "--two-m", "1", "--n", "1", "--p", "nan"],
    ["wavefunction", "--model", "s3", "--component", "r1", "--B", "inf",
     "--two-m", "1", "--n", "1"],
], ids=["spectrum-B-nan", "spectrum-B-overflow", "spectrum-rho-nan",
        "spectrum-rho-inf", "spectrum-M-nan", "regions-B-nan",
        "regions-B-overflow", "wavefunction-p-nan", "wavefunction-B-inf"])
def test_non_finite_or_overflowing_fields_exit_2(capsys, argv):
    # these used to print admissible rows with a nan (or 0.0) lambda_sq
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("rho", ["1e200", "1e-200", "1e-160", "1.5e-154"])
def test_extreme_rho_exits_2_with_one_error_line(capsys, rho):
    # rho^2 overflows or underflows to 0 (these ended in a traceback), or
    # lambda_sq / rho^2 overflows (this printed lambda_sq=inf, exit 0)
    code, out, err = _run(capsys, [
        "spectrum", "--model", "h3", "--B", "5", "--two-m", "1", "--n", "1",
        "--rho", rho])
    assert code == 2
    assert out == ""
    assert err.startswith("error: --rho") and err.count("\n") == 1


def test_overflowing_energy_exits_2(capsys):
    # M^2 overflows: this printed epsilon=inf, exit 0
    code, out, err = _run(capsys, [
        "spectrum", "--model", "s3", "--B", "1", "--M", "1e200", "--two-m", "1",
        "--n", "1", "--nz", "0"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: M^2 + p^2 is not finite") and err.count("\n") == 1


_BIG = str(10 ** 400)


@pytest.mark.parametrize("argv, name", [
    (["spectrum", "--model", "h3", "--B", "5", "--two-m", "1", "--n", _BIG], "n"),
    (["regions", "--model", "s3", "--B", "2", "--two-m", "1", "--n", _BIG], "n"),
    (["spectrum", "--model", "s3", "--B", "2", f"--two-m={10 ** 400 + 1}",
      "--n", "1"], "two_m"),
    (["regions", "--model", "h3", "--B", "5", f"--two-m={10 ** 400 + 1}",
      "--n", "0..2"], "two_m"),
    (["wavefunction", "--model", "h3", "--component", "r1", "--B", "5",
      "--two-m", "1", "--n", _BIG], "n"),
    (["wavefunction", "--model", "s3", "--component", "z1", "--B", "2",
      "--two-m", "1", "--n", "1", "--nz", _BIG], "n_z"),
    (["spectrum", "--model", "s3", "--B", "2", "--two-m", "1", "--n", "1",
      "--nz", _BIG], "n_z"),
    # 10^308 converts to a float but the predicate's 2n does not; H3 has
    # no row at (two_m, B) = (-1, 0.5), so nothing refused it sooner
    (["regions", "--model", "h3", "--B", "0.5", "--two-m=-1",
      "--n", str(10 ** 308)], "2n"),
    (["spectrum", "--model", "h3", "--B", "0.5", "--two-m=-1",
      "--n", str(10 ** 308)], "2n"),
], ids=["spectrum-n", "regions-n", "spectrum-two-m", "regions-two-m",
        "wavefunction-n", "wavefunction-nz", "spectrum-nz", "regions-2n",
        "spectrum-2n"])
def test_quantum_numbers_past_the_float_range_exit_2(capsys, argv, name):
    # 10^400 does not convert to a float: these ended in an OverflowError
    # traceback with exit 1
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {name} is too large for a float\n"


@pytest.mark.parametrize("argv", [
    ["wavefunction", "--model", "s3", "--component", "r1", "--B", "3",
     "--two-m", "1", "--n", "1", "--samples", str(10 ** 15)],
    ["spectrum", "--model", "h3", "--B", "5", "--two-m", "1",
     "--n", f"0..{10 ** 15}"]], ids=["samples", "range"])
def test_unallocatable_arguments_exit_2_with_one_error_line(capsys, argv):
    # 10^15 samples or levels need petabytes, which no 64-bit host can
    # allocate: these ended in a MemoryError traceback with exit 1
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: the arguments need more memory")
    assert err.count("\n") == 1


_DIGITS = "9" * 5001  # past int()'s default 4,300-digit string limit


@pytest.mark.parametrize("argv", [
    ["spectrum", "--model", "h3", "--B", "5", "--two-m", "1",
     "--n", f"0..{_DIGITS}"],
    ["regions", "--model", "s3", "--B", "2", f"--two-m={_DIGITS}",
     "--n", "0..2"],
    ["wavefunction", "--model", "h3", "--component", "r1", "--B", "5",
     f"--two-m={_DIGITS}", "--n", "1"],
    ["spectrum", "--model", "h3", "--B", "5", "--two-m", "1",
     "--n", f"0..{10 ** 20}"],
], ids=["spectrum-n", "regions-two-m", "wavefunction-two-m", "range-length"])
def test_oversized_range_bounds_exit_2(capsys, argv):
    # int() refused the 5,001-digit bounds, and a range of more than
    # 2^63 values does not fit a list: these ended in a ValueError or
    # OverflowError traceback with exit 1
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "error: --" in err


def test_evaluator_error_exits_2_with_one_error_line(capsys):
    # the h3 axial series at p = 1e4 and 1e6 runs past the series cap
    for p in ("1e4", "1e6"):
        code, out, err = _run(capsys, [
            "wavefunction", "--model", "h3", "--component", "z1", "--B", "5",
            "--two-m", "1", "--n", "1", "--p", p])
        assert code == 2, p
        assert out == ""
        assert err.startswith("error: series cap") and err.count("\n") == 1


def test_h3_axial_wavefunction_at_large_p_matches_mpmath(capsys):
    # the sums at p = 100 once returned ~1e30 of the sup-norm with exit 0;
    # the reference is the form before Euler's transformation,
    # y^((1+ip)/2) (1-y)^(ip/2) F(c + i lam, c - i lam; c + 1; y) with
    # c = ip + 1/2, at 40 digits
    code, out, _ = _run(capsys, [
        "wavefunction", "--model", "h3", "--component", "z1", "--B", "5",
        "--two-m", "1", "--n", "1", "--p", "100"])
    assert code == 0
    meta, _, rows = _parse_csv(out)
    lam = math.sqrt(float(meta["lambda_sq"]))
    got, ref = [], []
    with mpmath.workdps(40):
        c, il = mpmath.mpc(0.5, 100), mpmath.mpc(0, lam)
        for z, re, im in rows:
            y = 1 / (1 + mpmath.exp(-2 * mpmath.mpf(z)))
            ref.append(complex(mpmath.power(y, (c + 0.5) / 2)
                               * mpmath.power(1 - y, (c - 0.5) / 2)
                               * mpmath.hyp2f1(c + il, c - il, c + 1, y)))
            got.append(complex(float(re), float(im)))
    err = max(abs(g - r) for g, r in zip(got, ref))
    assert err <= 1e-12 * max(abs(r) for r in ref), err
