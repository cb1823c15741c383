"""Every name a package module imports is used there or exported."""

import ast
from pathlib import Path

import pytest

import detector_forge

_MODULES = sorted(Path(detector_forge.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    exported = set()
    export_public = False
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                exported |= {e.value for e in node.value.elts}
            else:
                # a computed __all__ (the package's, from its table of
                # exports) exports every public name
                export_public = True
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported
                  and not (export_public and not name.startswith("_")))


def test_the_check_sees_an_unused_import():
    source = ("from typing import Optional, Sequence\n"
              "import numpy as np\n__all__ = ['np']\n"
              "def f(x: Optional[int]):\n    return x\n")
    assert _unused_imports(source) == [(1, "Sequence")]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
