"""The closed-form commands run without scipy.

scipy is imported only inside the oracle's eigensolvers. Each command
here runs in a fresh interpreter where ``sys.modules["scipy"] = None``
makes any scipy import fail; it must still exit 0 and print what a
normal run prints. The radial verify suite, which calls the
eigensolvers, is the counter-case.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from curved_landau import cli

_SRC = Path(__file__).resolve().parents[1] / "src"

# argv[1] is "block" or "allow"; the rest goes to the CLI. The last
# stderr line reports whether scipy ended up imported.
_CHILD_SCRIPT = """\
import sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None
from curved_landau.cli import main
code = main(sys.argv[2:])
print("scipy loaded:", sys.modules.get("scipy") is not None, file=sys.stderr)
sys.exit(code)
"""

COMMANDS = [
    "spectrum --model h3 --B 5 --M 1 --two-m=1 --n 0..5",
    "regions --model s3 --B 2 --two-m=-3..3 --n 0..2",
    "wavefunction --model h3 --component r1 --B 5 --two-m=1 --n 1",
    "wavefunction --model s3 --component r2 --B 2.5 --two-m=-3 --n 2",
    "wavefunction --model h3 --component z1 --B 5 --two-m=1 --n 1 --p 0.7",
    "wavefunction --model s3 --component z2 --B 2.5 --two-m=1 --n 1 --nz 1",
    "verify --suite flat-limit",
    "verify --suite axial",
]


def _run_fresh(mode, command):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, mode, *command.split()],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_runs_without_scipy(capsys, command):
    blocked = _run_fresh("block", command)
    assert blocked.returncode == 0, blocked.stderr
    assert cli.main(command.split()) == 0
    assert blocked.stdout == capsys.readouterr().out
    # nothing tries scipy and falls back: a normal run leaves it unloaded
    allowed = _run_fresh("allow", command)
    assert allowed.returncode == 0, allowed.stderr
    assert allowed.stderr.splitlines()[-1] == "scipy loaded: False"


def test_radial_suite_needs_and_loads_scipy():
    command = "verify --suite radial"
    blocked = _run_fresh("block", command)
    assert blocked.returncode != 0
    assert "ModuleNotFoundError" in blocked.stderr
    assert "scipy" in blocked.stderr
    allowed = _run_fresh("allow", command)
    assert allowed.returncode == 0, allowed.stderr
    assert allowed.stderr.splitlines()[-1] == "scipy loaded: True"
