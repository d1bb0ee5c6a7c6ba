"""End-to-end tests of the command-line interface: table contents,
serialization round-trips, determinism, and the exit-code contract."""

import csv
import json
import math

import mpmath
import pytest

from curved_landau import cli


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


def test_csv_json_round_trip(capsys):
    csv_code, csv_out, _ = _run(capsys, _RT_ARGS)
    json_code, json_out, _ = _run(capsys, _RT_ARGS + ["--format", "json"])
    assert csv_code == json_code == 0
    _, columns, csv_records = _csv_records(csv_out)
    payload = json.loads(json_out)
    assert set(payload) == {"meta", "columns", "records"}
    assert payload["columns"] == list(columns)
    assert len(payload["records"]) == len(csv_records)
    for via_csv, via_json in zip(csv_records, payload["records"]):
        for column in columns:
            a, b = via_csv[column], via_json[column]
            if isinstance(a, float):
                assert abs(a - b) <= 1e-15 * max(1.0, abs(a))
            else:
                assert a == b


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
