"""curved_landau benchmark.

    python3 bench/run.py --workload verify|states|cli|all --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is loaded from the
checkout's ``src/``. Each workload is a closed loop driven by one caller
in one process (the cli workload runs one subprocess at a time). With
``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes of the same
inputs and reports per-layer metrics and the tracing overhead. The last
line of standard output is the JSON result; a human-readable table with
units, sample counts and run metadata precedes it, and the same data
plus the traced spans go to ``bench/out/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# one caller and no threads: keep OpenBLAS from starting worker threads
# (set before numpy loads; the subprocesses inherit it)
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("verify", "states", "cli")
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 5
# share of each timed pass spent on the reference unit after it; the
# ``*_ref`` metrics divide each op time by the unit time around its pass
REF_SHARE = 0.05
COLD_REPS = 5
CHILD_TIMEOUT = 60.0   # seconds; a run must end within 180

Metric = Tuple[float, str, int]   # value, unit, sample count


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def reference_unit(y=np.linspace(0.05, 0.95, 1500) + 0j) -> None:
    """One unit of fixed reference work that does not touch curved_landau:
    a 300-term power series on 1500 complex points, the package's kind of
    numpy work, and a 20,000-step interpreter loop."""
    term, acc = np.ones_like(y), np.zeros_like(y)
    for k in range(300):
        term = term * ((0.3 + 0.1j + k) * (1.7 + k) / ((2.2 + k) * (k + 1))) * y
        acc += term
    total = 0
    for i in range(20000):
        total += i * i


def reference_time(budget: float) -> float:
    """Median wall time of one reference unit, over at least three units
    and until ``budget`` seconds are spent."""
    times: List[float] = []
    start = perf_counter()
    while len(times) < 3 or perf_counter() - start < budget:
        t = perf_counter()
        reference_unit()
        times.append(perf_counter() - t)
    return statistics.median(times)


def timed_loop(seconds: float, run_pass: Callable[[int], None],
               ref_share: float = 0.0,
               min_passes: int = 1) -> Tuple[List[float], List[float]]:
    """Run passes until the next one would end after ``seconds``, and at
    least ``min_passes``; return the wall time of each pass and, if
    ``ref_share`` > 0, the reference-unit time around each pass: the mean
    of the units timed just before and just after it, for ``ref_share``
    of its wall time."""
    walls: List[float] = []
    refs: List[float] = []
    start = perf_counter()
    before = reference_time(0.0) if ref_share else 0.0
    while True:
        t = perf_counter()
        run_pass(len(walls))
        walls.append(perf_counter() - t)
        if ref_share:
            after = reference_time(ref_share * walls[-1])
            refs.append((before + after) / 2)
            before = after
        if (len(walls) >= min_passes
                and perf_counter() - start + walls[-1] > seconds):
            return walls, refs


def wall_of(argv: List[str], env=None) -> Tuple[float, int, bytes]:
    """Wall time, exit code and stdout of one subprocess (-1 on timeout)."""
    t = perf_counter()
    try:
        proc = subprocess.run(argv, cwd=wl.ROOT, env=env, timeout=CHILD_TIMEOUT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:   # run() has killed and reaped it
        return perf_counter() - t, -1, b""
    return perf_counter() - t, proc.returncode, proc.stdout


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(wl.SRC)
    return env


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def measure_setup(workload: str, seed: int) -> Metric:
    """Median wall time of fresh processes that import the package and
    generate this workload's inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            workload, "--seed", str(seed), "--setup-only"]
    walls = []
    for _ in range(SETUP_REPS):
        wall, code, _ = wall_of(argv)
        if code != 0:
            raise RuntimeError(f"setup process exited with {code}")
        walls.append(wall)
    return statistics.median(walls), "s", len(walls)


def cold_cli_times() -> Dict[str, Metric]:
    """Bare interpreter start, and cold ``import curved_landau.cli`` minus it."""
    bare = [wall_of([sys.executable, "-c", "pass"])[0]
            for _ in range(COLD_REPS)]
    cold = [wall_of([sys.executable, "-c", "import curved_landau.cli"],
                    child_env())[0] for _ in range(COLD_REPS)]
    interp = statistics.median(bare)
    return {"cli.interp_s": (interp, "s", COLD_REPS),
            "cli.import_s": (statistics.median(cold) - interp, "s", COLD_REPS)}


def run_metadata(args) -> Dict[str, object]:
    def version(dist: str):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    sha = ""
    if (wl.ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT,
                                 capture_output=True, text=True).stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for path in sorted(wl.SRC.rglob("*.py")):
        h.update(path.relative_to(wl.SRC).as_posix().encode())
        h.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha or None, "src_sha256": h.hexdigest(),
        "python": sys.version.split()[0], "numpy": version("numpy"),
        "scipy": version("scipy"), "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# workloads: e2e() is the untraced run, trace_pass()/settle() the traced
# run's passes, finish() the correctness accounting of either
# ---------------------------------------------------------------------------


class Verify:
    """Full passes of ``checks.run_suites(["all"])``. The suites draw
    their own fixed inputs, so the seed changes nothing here."""

    def __init__(self, cl, seed: int) -> None:
        self.cl = cl
        self.attempted = self.failed = 0
        self.checks_run = self.checks_failed = 0
        self.samples: Dict[str, List[float]] = {}

    def _pass(self, suites: List[str]) -> None:
        """One pass: ``run_suites([name])`` for each name in ``suites``."""
        self.attempted += 1
        bad = 0
        for name in suites:
            try:
                results = self.cl.checks.run_suites([name])
            except Exception as exc:  # counted, never aborts the run
                print(f"suite {name} raised {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                bad, results = bad + 1, []
            failed = sum(not r.passed for r in results)
            bad += failed
            self.checks_failed += failed
            self.checks_run += len(results)
        self.failed += bad > 0

    def e2e(self, seconds: float) -> Dict[str, Metric]:
        walls, refs = timed_loop(seconds, lambda k: self._pass(["all"]),
                                 REF_SHARE)
        self.samples.update(pass_s=walls, ref_s=refs)
        n = len(walls)
        checks = self.checks_run / n
        pass_s = statistics.median(walls)
        pass_ref = statistics.median(w / r for w, r in zip(walls, refs))
        return {
            "verify_pass_s": (pass_s, "s", n),
            "checks_per_s": (checks / pass_s, "1/s", n),
            "op_p50_ref": (pass_ref, "ref", n),
            "work_per_ref": (checks / pass_ref, "1/ref", n),
            "ref_unit_s": (statistics.median(refs), "s", n),
        }

    def trace_pass(self, tracer, k: int) -> None:
        """Suite by suite, the same work, so each suite is a span."""
        if tracer is None:
            self._pass(spans.SUITES)
            return
        with tracer.root("bench.pass", k):
            self._pass(spans.SUITES)

    def settle(self) -> None:
        pass

    def finish(self):
        return self.attempted, self.failed, {
            "checks_failed_frac": (self.checks_failed / max(1, self.checks_run),
                                   "fraction", self.checks_run)}, {}


class States:
    """quantize -> build -> evaluate_with_derivs on 1500 points, for each
    state of the seeded mix in turn, pass after pass. The rest of the
    lattice (the defect sweep) is evaluated once, untimed, in finish()."""

    def __init__(self, cl, seed: int) -> None:
        self.cl = cl
        self.states, self.sweep = wl.generate_states(cl, seed)
        self.points = [wl.state_points(s) for s in self.states]
        self.picks = wl.check_indices(seed, len(self.states))
        self.sweep_picks = wl.check_indices(seed, len(self.sweep), stream=5)
        self.first: List[object] = [None] * len(self.states)
        self.drift = [False] * len(self.states)
        self.passes = 0
        self.samples: Dict[str, List[float]] = {}

    def _op(self, i: int):
        return self._op_on(self.states[i], self.points[i])

    def _op_on(self, state, xs: np.ndarray):
        """The op; returns (form, (G, G', G'')) or "raised <exception
        name>"."""
        try:
            return wl.run_state(self.cl, state, xs)
        except Exception as exc:  # counted, never aborts the run
            return f"raised {type(exc).__name__}"

    def _record(self, i: int, outcome) -> None:
        """Keep the first outcome as (form, sampled G, all finite); flag a
        state whose later outcome differs."""
        outcome = self._sampled(outcome, self.picks[i])
        first = self.first[i]
        if first is None:
            self.first[i] = outcome
        elif isinstance(outcome, str) or isinstance(first, str):
            self.drift[i] |= outcome != first
        else:
            self.drift[i] |= not np.array_equal(outcome[1], first[1])

    def e2e(self, seconds: float) -> Dict[str, Metric]:
        op_s: List[List[float]] = []

        def run_pass(k: int) -> None:
            op_s.append([])
            for i in range(len(self.states)):
                t = perf_counter()
                outcome = self._op(i)
                op_s[-1].append(perf_counter() - t)
                self._record(i, outcome)
            self.passes += 1

        walls, refs = timed_loop(seconds, run_pass, REF_SHARE)
        self.samples.update(pass_s=walls, ref_s=refs)
        n, count = len(walls), len(self.states)
        ops = np.concatenate(op_s)
        p50, p90, p99 = (float(v) for v in np.percentile(ops, (50, 90, 99)))
        ops_ref = np.concatenate([np.array(v) / r for v, r in zip(op_s, refs)])
        pass_ref = statistics.median(w / r for w, r in zip(walls, refs))
        return {
            "states_per_s": (count / statistics.median(walls), "1/s", n),
            "state_s_p50": (p50, "s", ops.size),
            "state_s_p90": (p90, "s", ops.size),
            "state_s_p99": (p99, "s", ops.size),
            "op_p50_ref": (float(np.median(ops_ref)), "ref", ops.size),
            "work_per_ref": (count / pass_ref, "1/ref", n),
            "ref_unit_s": (statistics.median(refs), "s", n),
        }

    def trace_pass(self, tracer, k: int) -> None:
        for i in range(len(self.states)):
            if tracer is None:
                outcome = self._op(i)
            else:
                with tracer.root("bench.state", i):
                    outcome = self._op(i)
            self._record(i, outcome)
        self.passes += 1

    def settle(self) -> None:
        pass

    def finish(self):
        """Compare each state's first outcome with mpmath (untimed). A
        state fails if it raised, gave non-finite values, changed between
        passes or is off by more than TOLERANCE; each attempt of a failing
        state counts as a failed op. Then run the defect sweep once and
        report, over the whole lattice (mix and sweep), the share of
        states that are inaccurate and the share that raised."""
        verdicts: Dict[str, object] = {}
        for i, first in enumerate(self.first):
            verdict = self._verdict(first, self.points[i][self.picks[i]])
            if self.drift[i]:
                verdict = "drift"
            if verdict:
                verdicts[self.states[i].label] = verdict
        defects: Dict[str, object] = {}
        for state, picks in zip(self.sweep, self.sweep_picks):
            xs = wl.state_points(state)
            outcome = self._sampled(self._op_on(state, xs), picks)
            verdict = self._verdict(outcome, xs[picks])
            if verdict:
                defects[state.label] = verdict
        everything = list(verdicts.values()) + list(defects.values())
        raised = sum(v.startswith("raised") for v in everything)
        lattice = len(self.states) + len(self.sweep)
        count = len(self.states)
        return self.passes * count, self.passes * len(verdicts), {
            "inaccurate_frac": ((len(everything) - raised) / lattice,
                                "fraction", lattice),
            "raised_frac": (raised / lattice, "fraction", lattice),
        }, {"failing_states": verdicts, "sweep_defects": defects}

    @staticmethod
    def _sampled(outcome, picks: np.ndarray):
        """An op outcome as (form, G at ``picks``, all values finite)."""
        if isinstance(outcome, str):
            return outcome
        form, values = outcome
        finite = all(bool(np.all(np.isfinite(v))) for v in values)
        return form, values[0][picks], finite

    @staticmethod
    def _verdict(outcome, xs: np.ndarray):
        """None if a recorded outcome is accurate, else why not."""
        if isinstance(outcome, str):
            return outcome
        form, sampled, finite = outcome
        if not finite:
            return "nonfinite"
        err = wl.relative_error(sampled, wl.reference_values(form, xs))
        return None if err <= wl.TOLERANCE else f"inaccurate {err:.3g}"


class Cli:
    """Cold ``python -m curved_landau.cli`` runs of the seeded command mix,
    one subprocess at a time."""

    def __init__(self, cl, seed: int) -> None:
        self.cl = cl
        self.commands = wl.generate_commands(seed)
        self.rng = np.random.default_rng([seed, 4])
        self.digests: Dict[int, str] = {}
        self.attempted = self.failed = 0
        self.reasons: Dict[str, int] = {}
        self.pending: List[Tuple[int, int, bytes]] = []
        self.samples: Dict[str, List[float]] = {}

    def _check(self, i: int, code: int, out: bytes) -> None:
        command = self.commands[i]
        reason = wl.check_output(command, code, out, self.rng)
        digest = hashlib.sha256(out).hexdigest()
        if reason is None and self.digests.setdefault(i, digest) != digest:
            reason = "output differs from the first run"
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            key = f"{' '.join(command.argv)}: {reason}"
            self.reasons[key] = self.reasons.get(key, 0) + 1

    def e2e(self, seconds: float) -> Dict[str, Metric]:
        """One command per pass, so each cold run has its own reference-unit
        time around it. The passes cycle through one small command and
        then both tables, so the two tables get as many runs as the three
        small commands together. A run covers at least one whole cycle."""
        env = child_env()
        small = [i for i, c in enumerate(self.commands) if c.kind == "small"]
        tables = [i for i, c in enumerate(self.commands) if c.kind == "table"]
        order = [i for s in small for i in [s] + tables]
        runs: List[List[Tuple[float, int]]] = [[] for _ in self.commands]

        def run_command(k: int) -> None:
            i = order[k % len(order)]
            wall, code, out = wall_of([sys.executable, "-m", "curved_landau.cli",
                                       *self.commands[i].argv], env)
            runs[i].append((wall, k))
            self._check(i, code, out)

        _, refs = timed_loop(seconds, run_command, REF_SHARE, len(order))
        n = len(refs)
        timed = [[(w, refs[k]) for w, k in v] for v in runs]
        self.samples = {" ".join(c.argv): [w for w, _ in v]
                        for c, v in zip(self.commands, timed)}
        self.samples["ref_s"] = refs
        small_runs = [pair for i in small for pair in timed[i]]
        rows = sum(self.commands[i].rows for i in tables)
        return {
            "cli_small_s": (statistics.median(w for w, _ in small_runs), "s",
                            len(small_runs)),
            "cli_rows_per_s": (rows / sum(statistics.median(w for w, _ in timed[i])
                                          for i in tables), "1/s", n),
            "op_p50_ref": (statistics.median(w / r for w, r in small_runs),
                           "ref", len(small_runs)),
            "work_per_ref": (rows / sum(statistics.median(w / r for w, r in timed[i])
                                        for i in tables), "1/ref", n),
            "ref_unit_s": (statistics.median(refs), "s", n),
        }

    def trace_pass(self, tracer, k: int) -> None:
        """The same commands through ``cli.main`` in this process."""
        for i, command in enumerate(self.commands):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                if tracer is None:
                    code = self.cl.cli.main(list(command.argv))
                else:
                    with tracer.root("bench.command", i):
                        code = self.cl.cli.main(list(command.argv))
            out = buf.getvalue().encode("utf-8")
            if tracer is not None:
                tracer.counts["cli.bytes_out"] = (
                    tracer.counts.get("cli.bytes_out", 0) + len(out))
            self.pending.append((i, code, out))

    def settle(self) -> None:
        """Check the outputs of the last in-process pass (untimed)."""
        for args in self.pending:
            self._check(*args)
        self.pending.clear()

    def finish(self):
        return self.attempted, self.failed, {}, {"failure_reasons": self.reasons}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def trace_run(work, seconds: float, units: Dict[str, str],
              spans_path: Path) -> Dict[str, Metric]:
    """Alternate untraced and traced passes of the same inputs. Per-layer
    metrics are medians over the traced passes; the overhead is the
    median traced minus the median untraced pass wall time. The spans of
    the first traced pass are written to ``spans_path``."""
    untraced: List[float] = []
    traced: List[float] = []
    per_pass: List[Dict[str, float]] = []
    kept: List[list] = []

    def pair(k: int) -> None:
        t = perf_counter()
        work.trace_pass(None, k)
        untraced.append(perf_counter() - t)
        work.settle()
        tracer = spans.Tracer()
        undo = spans.instrument(tracer)
        try:
            t = perf_counter()
            work.trace_pass(tracer, k)
            wall = perf_counter() - t
        finally:
            spans.restore(undo)
        work.settle()
        traced.append(wall)
        per_pass.append(spans.layer_metrics(tracer, wall))
        if not kept:
            kept.extend(tracer.spans)

    timed_loop(seconds, pair)
    OUT.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span in kept:
            handle.write(json.dumps(span) + "\n")
    work.samples.update(untraced_pass_s=untraced, traced_pass_s=traced)
    n = len(per_pass)
    metrics: Dict[str, Metric] = {
        name: (value, units[name], n)
        for name, value in spans.median_metrics(per_pass).items()}
    metrics["trace.untraced_pass_s"] = (statistics.median(untraced), "s", n)
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced), "s", n)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            code = max(code, subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)]).returncode)
        return code

    try:
        with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            bench = json.load(handle)
        cl = wl.import_package()
    except (OSError, ValueError, ImportError, wl.SetupError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    work = {"verify": Verify, "states": States, "cli": Cli}[args.workload](
        cl, args.seed)
    if args.setup_only:
        return 0

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        wanted = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = trace_run(work, args.seconds, wanted,
                            OUT / f"spans-{stem}.jsonl")
        metrics.update(cold_cli_times())
    else:
        wanted = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        metrics = {"setup_s": measure_setup(args.workload, args.seed)}
        metrics.update(work.e2e(args.seconds))
    attempted, failed, checked, details = work.finish()
    metrics.update(checked)
    metrics["failed_frac"] = (failed / attempted, "fraction", attempted)
    if not args.trace:
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")

    meta = run_metadata(args)
    OUT.mkdir(exist_ok=True)
    report = {"meta": meta, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()},
              "samples": work.samples, **details}
    (OUT / f"result-{stem}.json").write_text(json.dumps(report, indent=1))

    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"{'metric':34s} {'value':>14s} {'unit':9s} samples")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit:9s} {n}")
    print(f"attempted={attempted} failed={failed}")
    for key, value in details.items():
        if value:
            print(f"# {len(value)} {key.replace('_', ' ')}: see "
                  f"bench/out/result-{stem}.json")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in wanted.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
