"""Every module of the package and of the tests uses what it imports."""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_MODULES = sorted([*(_ROOT / "src" / "curved_landau").glob("*.py"),
                   *(_ROOT / "tests").glob("*.py")])


def _unused_imports(source: str):
    """Names bound by an import statement that no expression of the
    module reads and its __all__ does not list (__future__ imports are
    compiler directives, not names)."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", _MODULES,
                         ids=[str(p.relative_to(_ROOT)) for p in _MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_scanner_flags_an_unused_import():
    source = ("from __future__ import annotations\nimport os, sys as system\n"
              "from math import pi, tau\n__all__ = ['tau']\nprint(os.sep)\n")
    assert _unused_imports(source) == [(2, "system"), (3, "pi")]
