"""The README's Python examples run as written: every fenced ``python``
block of README.md, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


def test_readme_python_blocks_run():
    namespace = {"__name__": "readme"}
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
