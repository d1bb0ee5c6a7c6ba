"""The closed-form commands run without scipy and without numpy.

scipy is imported only inside the oracle's eigensolvers. Each command
here runs in a fresh interpreter where ``sys.modules["scipy"] = None``
makes any scipy import fail; it must still exit 0 and print what a
normal run prints. The radial verify suite, which calls the
eigensolvers, is the counter-case.

numpy is bound lazily (``curved_landau._numpy``) and loads at the first
numpy call. ``spectrum``, ``regions`` and ``verify --suite flat-limit``
quantize and audit levels with ``math`` alone, so a normal run of them
leaves no ``numpy.*`` submodule loaded (the lazy ``numpy`` entry itself
is always there); ``wavefunction`` and the axial suite are the
counter-case.

The oracle (``curved_landau.oracle``) is loaded by the four suites that
meter with it, radial, axial, commutator and pairs, and by nothing
else: not by ``import curved_landau``, the closed-form commands,
``wavefunction`` or the hyp suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

from curved_landau import cli

_SRC = Path(__file__).resolve().parents[1] / "src"

# argv[1] is "block" or "allow"; the rest goes to the CLI. The last three
# stderr lines report whether scipy, numpy and the oracle ended up imported.
_CHILD_SCRIPT = """\
import sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None
from curved_landau.cli import main
code = main(sys.argv[2:])
print("scipy loaded:", sys.modules.get("scipy") is not None, file=sys.stderr)
print("numpy loaded:", any(name.startswith("numpy.") for name in sys.modules),
      file=sys.stderr)
print("oracle loaded:", "curved_landau.oracle" in sys.modules, file=sys.stderr)
sys.exit(code)
"""

CLOSED_FORM = [
    "spectrum --model h3 --B 5 --M 1 --two-m=1 --n 0..5",
    "spectrum --model s3 --B 1 --M 1 --two-m=-3..3 --n 0..2 --nz 0..2",
    "regions --model s3 --B 2 --two-m=-3..3 --n 0..2",
    "verify --suite flat-limit",
]
ORACLE_FREE = CLOSED_FORM + [
    "verify --suite hyp",
    "wavefunction --model h3 --component r1 --B 5 --two-m=1 --n 1",
    "wavefunction --model s3 --component r2 --B 2.5 --two-m=-3 --n 2",
    "wavefunction --model h3 --component z1 --B 5 --two-m=1 --n 1 --p 0.7",
    "wavefunction --model s3 --component z2 --B 2.5 --two-m=1 --n 1 --nz 1",
]
COMMANDS = ORACLE_FREE + ["verify --suite axial"]


def _run_fresh(mode, command, script=_CHILD_SCRIPT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, "-c", script, mode, *command.split()],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_runs_without_scipy(capsys, command):
    blocked = _run_fresh("block", command)
    assert blocked.returncode == 0, blocked.stderr
    assert cli.main(command.split()) == 0
    in_process = capsys.readouterr().out
    assert blocked.stdout == in_process
    # nothing tries scipy and falls back: a normal run leaves it unloaded,
    # numpy too where the command is closed form, and the oracle where no
    # suite meters with it
    allowed = _run_fresh("allow", command)
    assert allowed.returncode == 0, allowed.stderr
    assert allowed.stdout == in_process
    assert allowed.stderr.splitlines()[-3:] == [
        "scipy loaded: False", f"numpy loaded: {command not in CLOSED_FORM}",
        f"oracle loaded: {command not in ORACLE_FREE}"]


def test_radial_suite_needs_and_loads_scipy():
    command = "verify --suite radial"
    blocked = _run_fresh("block", command)
    assert blocked.returncode != 0
    assert "ModuleNotFoundError" in blocked.stderr
    assert "scipy" in blocked.stderr
    allowed = _run_fresh("allow", command)
    assert allowed.returncode == 0, allowed.stderr
    assert allowed.stderr.splitlines()[-3:] == ["scipy loaded: True",
                                                "numpy loaded: True",
                                                "oracle loaded: True"]


def test_package_import_loads_no_verification_layer():
    child = _run_fresh("", "", "import sys\nimport curved_landau\n"
                               "print(sorted(name for name in sys.modules\n"
                               "             if name.startswith('curved_landau.')))\n")
    assert child.returncode == 0, child.stderr
    loaded = child.stdout.strip()
    assert "curved_landau.model" in loaded
    assert "curved_landau.oracle" not in loaded
    assert "curved_landau.checks" not in loaded


def test_package_binds_the_imported_numpy():
    # this process imported numpy before the package: every module holds
    # that module itself, not a lazy stand-in
    from curved_landau import checks, hyp2f1, model, oracle
    for module in (checks, cli, hyp2f1, model, oracle):
        assert module.np is numpy, module.__name__


def test_import_without_numpy_is_refused():
    blocked = _run_fresh("", "", "import sys\nsys.modules['numpy'] = None\n"
                                 "import curved_landau\n")
    assert blocked.returncode != 0
    assert blocked.stderr.splitlines()[-1] == (
        "ModuleNotFoundError: No module named 'numpy'")
