"""The README's examples run as written: every fenced ``python`` block of
README.md, in order, in one namespace, and every ``curved-landau`` line
of its ``sh`` blocks, through the CLI's entry point, exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from curved_landau import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
COMMANDS = [shlex.split(line, comments=True)[1:]
            for block in re.findall(r"^```sh\n(.*?)^```", TEXT, flags=re.M | re.S)
            for line in block.splitlines() if line.startswith("curved-landau ")]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


def test_readme_python_blocks_run():
    namespace = {"__name__": "readme"}
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_readme_has_command_examples():
    assert len(COMMANDS) >= 8


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a) for a in COMMANDS])
def test_readme_command_lines_exit_0(argv):
    assert cli.main(argv) == 0
