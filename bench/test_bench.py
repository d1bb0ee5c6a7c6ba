"""Self-tests of the benchmark harness (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import run
import spans
import workloads as wl

cl = wl.import_package()

from curved_landau.model import Component  # noqa: E402  (needs src on the path)


def _span(name, start, end, parent, info=None, ok=True):
    return [name, start, end, parent, 0, info, ok]


def test_self_time_subtracts_direct_children_only():
    tracer = spans.Tracer()
    tracer.spans[:] = [
        _span("bench.state", 0.0, 10.0, -1),
        _span("model.evaluate_with_derivs", 1.0, 9.0, 0, info=1500),
        _span("model.derivs_y", 2.0, 8.0, 1, info=1500),
        _span("hyp2f1.series_with_derivatives", 3.0, 7.0, 2, info=(1500, 4)),
        _span("lobachevsky.h3_quantize", 9.0, 9.5, 0),
    ]
    assert spans.self_times(tracer.spans) == [1.5, 2.0, 2.0, 4.0, 0.5]
    m = spans.layer_metrics(tracer, 10.0)
    assert m["model.busy_s"] == 8.0
    assert m["model.self_s"] == 4.0
    assert m["hyp2f1.busy_s"] == 4.0
    assert m["hyp2f1.terminating_s"] == 4.0
    assert m["hyp2f1.poly_terms"] == 5
    assert m["model.evaluate_calls"] == 1
    assert m["lobachevsky.quantize_calls"] == 1
    # layers' self times plus glue add up to the pass wall time
    assert m["trace.glue_s"] == pytest.approx(10.0 - 4.0 - 4.0 - 0.5)


def test_instrument_records_nested_calls_and_restores():
    hyp = cl.hyp2f1
    original = hyp.eval_2f1
    tracer = spans.Tracer()
    undo = spans.instrument(tracer)
    try:
        params = hyp.Hyp2F1Params(0.5, 0.25, 1.5)
        cl.oracle.u2_value(params, 0.3)   # name imported from hyp2f1
    finally:
        spans.restore(undo)
    assert hyp.eval_2f1 is original
    assert cl.oracle.u2_value is hyp.u2_value
    names = [s[0] for s in tracer.spans]
    assert names == ["hyp2f1.u2_value", "hyp2f1.eval_2f1"]
    assert tracer.spans[1][3] == 0


def test_timed_loop_times_the_reference_unit_around_each_pass():
    calls = []
    walls, refs = run.timed_loop(0.2, calls.append, ref_share=0.05)
    assert calls == list(range(len(walls)))
    assert len(refs) == len(walls) and all(r > 0 for r in refs)
    walls, refs = run.timed_loop(0.0, calls.append)
    assert len(walls) == 1 and refs == []


def test_generators_are_deterministic_in_the_seed():
    first = wl.generate_states(cl, 7)
    assert first == wl.generate_states(cl, 7)
    assert first[0] != wl.generate_states(cl, 8)[0]
    assert wl.generate_commands(7) == wl.generate_commands(7)
    assert wl.generate_commands(7) != wl.generate_commands(8)
    picks = wl.check_indices(7, 3)
    assert all(np.array_equal(a, b) for a, b in zip(picks, wl.check_indices(7, 3)))


def test_states_sweep_keeps_the_known_defects_out_of_the_mix():
    mix, sweep = wl.generate_states(cl, 1)
    r1 = {(s.geometry, s.B, s.two_m, s.n) for s in sweep if s.component == "r1"}
    assert set(wl.KNOWN_BAD) <= r1
    z_maxes = sorted(s.window[1] for s in mix + sweep if s.p is not None)
    assert z_maxes == sorted(z for z in wl.H3_Z_MAXES
                             for _ in range(4 if z <= wl.H3_Z_MIX_MAX else 2))
    for s in mix:
        if s.p is not None:
            assert s.window[1] <= wl.H3_Z_MIX_MAX
        elif s.n_z is not None:
            assert s.n_z <= wl.S3_Z_MIX_NZ
        else:
            assert s.n <= (wl.H3_R_MIX_N[s.B] if s.geometry == "h3"
                           else wl.S3_R_MIX_N)


def _s3_r1_error(n: int, xs: np.ndarray) -> float:
    sph = cl.spherical
    entry = sph.s3_quantize(1, 1.0, n, Component.R1)
    form = sph.s3_radial_solution(1, 1.0, entry.lambda_sq, Component.R1,
                                  entry.variant)
    return wl.relative_error(form.evaluate(xs), wl.reference_values(form, xs))


def test_accuracy_gate_flags_roadmap_state_and_passes_low_n():
    xs = np.concatenate([[0.001], np.linspace(*wl.S3_R_WINDOW, 12)])
    assert _s3_r1_error(30, xs) > wl.TOLERANCE
    assert _s3_r1_error(30, np.array([0.001])) > 1e3   # prints -459.6
    assert _s3_r1_error(2, xs) < 1e-12


def test_cli_output_check_catches_a_wrong_level():
    command = wl.generate_commands(1)[0]     # the 6-row h3 spectrum
    B = float(command.argv[command.argv.index("--B") + 1])

    def table(wrong_n=None) -> bytes:
        rows = ["# command: spectrum", "model,B,M,two_m,n,n_z,variant,lambda_sq"]
        for n in range(6):
            lam_sq = 1.5 if n == wrong_n else B * B - (B - n) ** 2
            rows.append(f"h3,{B!r},1.0,1,{n},,1,{lam_sq!r}")
        return "\n".join(rows).encode()

    rng = np.random.default_rng(0)
    assert wl.check_output(command, 0, table(), rng) is None
    assert "lambda_sq" in wl.check_output(command, 0, table(wrong_n=2), rng)
    assert wl.check_output(command, 4, b"", rng) == "exit code 4"
    assert math.isinf(wl.relative_error(np.array([np.nan]), np.array([1.0])))
