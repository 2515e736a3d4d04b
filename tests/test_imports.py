"""No module of the package imports a name that it neither uses nor lists in __all__."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ginverse"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by import (``__future__`` aside) and neither
    reads anywhere nor lists in a top-level ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used - {"*"})


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    assert _unused_imports((PACKAGE / name).read_text()) == []


def test_guard_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "import xml.dom\n"
        "from .a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "x = np.zeros(1)\n"
    )
    assert _unused_imports(source) == ["b", "d", "os", "xml"]


def test_guard_counts_attribute_bases_and_nested_uses():
    source = "import numpy as np\ndef f():\n    from .m import g\n    return np.linalg.norm(g())\n"
    assert _unused_imports(source) == []
