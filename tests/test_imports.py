"""Every module of the package and of the tests uses what it imports,
and every module-level private name of the package is read somewhere in
it."""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = sorted((_ROOT / "src" / "curved_landau").glob("*.py"))
_MODULES = sorted([*_PACKAGE, *(_ROOT / "tests").glob("*.py")])


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


def _unused_private_names(sources):
    """(module, line, name) of each module-level private name (`_x`, not
    a dunder) bound by a def, class or assignment in one of `sources`
    (module name -> source) that no expression of any of them reads,
    as a bare name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(d for d in defined if d[2] not in read)


def test_no_unused_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in _PACKAGE}
    assert _unused_private_names(sources) == []


def test_scanner_flags_an_unused_private_name():
    sources = {
        "a": ("_USED = 1\n_DEAD: int = 2\n__version__ = '1'\n"
              "def _helper():\n    return _USED\n"
              "def _orphan():\n    return 0\n"
              "class _Kept:\n    def _method(self):\n        pass\n"),
        "b": "import a\nfrom a import _Kept\nprint(a._helper(), _Kept)\n",
    }
    assert _unused_private_names(sources) == [("a", 2, "_DEAD"), ("a", 6, "_orphan")]
