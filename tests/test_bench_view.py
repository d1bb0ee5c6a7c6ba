"""The names the benchmark harness reaches in the package exist and are
traced. bench/spans.py wraps each layer's public functions by name and
books time to some of those names; bench/workloads.py calls others. A
renamed or removed name would zero a per-layer metric or break a
workload with no other test failing. The harness is read, not edited."""

import importlib
import importlib.util
from pathlib import Path

from curved_landau import hyp2f1, lobachevsky, model, spherical

_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(name: str):
    """(module, attribute) of a span name "layer.attr"."""
    layer, attr = name.split(".")
    return importlib.import_module(f"curved_landau.{layer}"), attr


def test_every_name_spans_books_time_to_is_wrapped():
    spans = _spans_module()
    names = [*spans.ORACLE_TIMES, *spans.SUMMATIONS,
             "lobachevsky.h3_quantize", "spherical.s3_quantize"]
    originals = {name: getattr(*_lookup(name)) for name in names}
    methods = {attr: vars(model.SolutionForm)[attr]
               for attr in spans.SOLUTION_METHODS}
    undo = spans.instrument(spans.Tracer())
    try:
        for name, fn in originals.items():
            assert getattr(getattr(*_lookup(name)), "__wrapped__", None) is fn, name
        for attr, fn in methods.items():
            traced = vars(model.SolutionForm)[attr]
            assert getattr(traced, "__wrapped__", None) is fn, attr
    finally:
        spans.restore(undo)
    for name, fn in originals.items():
        assert getattr(*_lookup(name)) is fn, name
    for attr, fn in methods.items():
        assert vars(model.SolutionForm)[attr] is fn, attr


def test_every_name_the_workloads_call_exists():
    for module, attr in ((lobachevsky, "h3_quantize"), (spherical, "s3_quantize"),
                         (lobachevsky, "h3_radial_solution"),
                         (spherical, "s3_radial_solution"),
                         (lobachevsky, "h3_axial_solution"),
                         (spherical, "s3_axial_solution"),
                         (spherical, "s3_axial_quantize")):
        assert callable(getattr(module, attr, None)), attr
    assert hyp2f1.KummerBranch.U1
