"""In-memory span recorder that instruments curved_landau from outside.

No source module is edited. ``instrument`` wraps every public function
of each layer module (and four ``SolutionForm`` methods) and rebinds
the wrapper wherever the original object is bound inside the package,
so ``model.series_with_derivatives`` and ``oracle.u2_value`` (names
imported from a sibling module) are traced as well as the module
attributes. The returned undo list puts the originals back.

A span is ``[name, start, end, parent, op, info, ok]``: ``parent`` is
the index of the enclosing span in the same recorder (-1 for a root),
``op`` the benchmark operation that caused it, ``info`` a per-function
count taken from the arguments and result, and ``ok`` False when the
call raised.
A span's self time is its duration minus the durations of its direct
children; calls are strictly nested on one thread, so the children
never overlap and their sum is the time they cover.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import statistics
from time import perf_counter
from typing import Callable, Dict, List, Optional

LAYERS = ("hyp2f1", "model", "lobachevsky", "spherical", "oracle", "checks",
          "cli")
SOLUTION_METHODS = ("evaluate", "evaluate_with_derivs", "value_y", "derivs_y")
SUITES = ("hyp", "radial", "axial", "commutator", "pairs", "flat-limit")
# the two hyp2f1 entry points that each sum one Gauss series
SUMMATIONS = ("hyp2f1.eval_2f1", "hyp2f1.series_with_derivatives")
ORACLE_TIMES = {
    "oracle.radial_eigenvalues_h3": "oracle.eigen_s",
    "oracle.radial_eigenvalues_s3": "oracle.eigen_s",
    "oracle.ode_residual": "oracle.ode_residual_s",
    "oracle.first_order_system_residual": "oracle.system_residual_s",
    "oracle.commutator_residual": "oracle.commutator_s",
}


class Tracer:
    """Collects spans for one pass; ``op`` labels the spans that follow
    and ``counts`` holds counters the benchmark measures itself."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self.op = -1

    def wrap(self, name: str, fn: Callable,
             info: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None,
                   True]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                rec[6] = False
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if info is not None:
                    rec[5] = info(args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def root(self, name: str, op: int):
        """Span of one benchmark operation; the spans inside carry ``op``."""
        self.op = op
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, op,
               None, True]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        except BaseException:
            rec[6] = False
            raise
        finally:
            rec[2] = perf_counter()
            self._stack.pop()


def _series_info(args, kwargs, result):
    """(points, degree or None) of one series summation."""
    params, y = args[0], args[1]
    size = getattr(y, "size", 1)
    return (int(size), params.degree if params.terminating else None)


def _points_info(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs.get("x", kwargs.get("y"))
    return int(getattr(x, "size", 1))


def _grid_info(args, kwargs, result):
    for value in list(args) + list(kwargs.values()):
        if hasattr(value, "r_points"):
            return int(value.r_points * value.z_points)
        if hasattr(value, "points") and hasattr(value, "spacing"):
            return int(value.points)
    return 0


def _suite_info(args, kwargs, result):
    """(suites run, checks failed)."""
    names = args[0] if args else kwargs["names"]
    return "+".join(names), sum(not r.passed for r in result or ())


def _info_for(name: str) -> Optional[Callable]:
    if name in SUMMATIONS:
        return _series_info
    if name.startswith("model."):
        return _points_info
    if name.startswith("oracle."):
        return _grid_info
    if name == "checks.run_suites":
        return _suite_info
    return None


def instrument(tracer: Tracer) -> list:
    """Wrap the public functions of every layer module; return the undo
    list for ``restore``."""
    package = importlib.import_module("curved_landau")
    modules = {layer: importlib.import_module(f"curved_landau.{layer}")
               for layer in LAYERS}
    holders = [package] + list(modules.values())
    undo = []
    for layer, module in modules.items():
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                continue
            name = f"{layer}.{attr}"
            wrapper = tracer.wrap(name, fn, _info_for(name))
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        undo.append((holder, key, fn))
                        setattr(holder, key, wrapper)
    form = modules["model"].SolutionForm
    for attr in SOLUTION_METHODS:
        fn = vars(form)[attr]
        undo.append((form, attr, fn))
        setattr(form, attr, tracer.wrap(f"model.{attr}", fn, _points_info))
    return undo


def restore(undo: list) -> None:
    for holder, key, fn in reversed(undo):
        setattr(holder, key, fn)


def self_times(spans: List[list]) -> List[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer, pass_s: float) -> Dict[str, float]:
    """Per-layer counts and times of one traced pass of ``pass_s`` wall
    seconds. ``busy`` is the time covered by a layer's outermost spans,
    ``self`` that time minus the child spans of other layers."""
    spans = tracer.spans
    own = self_times(spans)
    m: Dict[str, float] = {
        "hyp2f1.calls": 0, "hyp2f1.points": 0, "hyp2f1.busy_s": 0.0,
        "hyp2f1.terminating_calls": 0, "hyp2f1.poly_terms": 0,
        "hyp2f1.failed": 0, "hyp2f1.terminating_s": 0.0,
        "hyp2f1.nonterminating_s": 0.0,
        "model.evaluate_calls": 0, "model.points": 0, "model.busy_s": 0.0,
        "model.self_s": 0.0,
        "lobachevsky.quantize_calls": 0, "lobachevsky.self_s": 0.0,
        "spherical.quantize_calls": 0, "spherical.self_s": 0.0,
        "oracle.eigen_s": 0.0, "oracle.ode_residual_s": 0.0,
        "oracle.system_residual_s": 0.0, "oracle.commutator_s": 0.0,
        "oracle.self_s": 0.0, "oracle.points": 0,
        **{f"checks.{suite}_s": 0.0 for suite in SUITES},
        "checks.failed": 0, "checks.self_s": 0.0,
        "cli.main_self_s": 0.0, "cli.bytes_out": 0,
        **tracer.counts,
    }
    library_self = 0.0
    for i, (name, start, end, parent, _op, info, ok) in enumerate(spans):
        layer = _layer(name)
        dur = end - start
        if layer != "bench":
            library_self += own[i]
        parent_name = spans[parent][0] if parent >= 0 else ""
        outermost = _layer(parent_name) != layer
        if layer in ("hyp2f1", "model") and outermost:
            m[f"{layer}.busy_s"] += dur
        if layer in ("model", "lobachevsky", "spherical", "oracle", "checks"):
            m[f"{layer}.self_s"] += own[i]
        if name in SUMMATIONS:
            points, degree = info
            m["hyp2f1.calls"] += 1
            m["hyp2f1.points"] += points
            m["hyp2f1.failed"] += not ok
            if degree is None:
                m["hyp2f1.nonterminating_s"] += dur
            else:
                m["hyp2f1.terminating_calls"] += 1
                m["hyp2f1.poly_terms"] += degree + 1
                m["hyp2f1.terminating_s"] += dur
        elif name in ("model.evaluate", "model.evaluate_with_derivs"):
            m["model.evaluate_calls"] += 1
            m["model.points"] += info
        elif name in ("lobachevsky.h3_quantize", "spherical.s3_quantize"):
            if parent_name != name:  # the B < 0 reflection recurses
                m[f"{layer}.quantize_calls"] += 1
        elif name in ORACLE_TIMES:
            m[ORACLE_TIMES[name]] += dur
            m["oracle.points"] += info
        elif name == "checks.run_suites":
            suite, failed = info
            m["checks.failed"] += failed
            if f"checks.{suite}_s" in m:
                m[f"checks.{suite}_s"] += dur
        elif name == "cli.main":
            m["cli.main_self_s"] += own[i]
    m["hyp2f1.terminating_share"] = m["hyp2f1.terminating_s"] / pass_s
    m["hyp2f1.nonterminating_share"] = m["hyp2f1.nonterminating_s"] / pass_s
    m["trace.pass_s"] = pass_s
    m["trace.glue_s"] = pass_s - library_self
    return m


def median_metrics(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(p[key] for p in per_pass)
            for key in per_pass[0]}
