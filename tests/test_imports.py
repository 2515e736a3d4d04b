"""No module of the package imports a name that it neither uses nor lists in __all__,
and no private name of the package goes unread."""

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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """"module:name" for each private name (one leading underscore) that a module of
    ``sources`` defines at its top level, as a function, class or assignment, or as
    a method of a top-level class, and that no module reads outside the name's own
    definition.  A read is a loaded name or attribute, or an imported alias; names
    match by their text alone, whichever module or class they belong to."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads: dict[str, list] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(node)
            elif isinstance(node, ast.alias):
                reads.setdefault(node.name, []).append(node)
    dead = []
    for module, tree in trees.items():
        defined = []  # (name, its definition)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (item.name, item)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [
                    (target.id, node)
                    for t in targets
                    for target in (t.elts if isinstance(t, ast.Tuple) else [t])
                    if isinstance(target, ast.Name)
                ]
        for name, definition in defined:
            inside = {id(node) for node in ast.walk(definition)}
            if _private(name) and all(id(read) in inside for read in reads.get(name, [])):
                dead.append(f"{module}:{name}")
    return sorted(dead)


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


def test_no_dead_private_names():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert _dead_private_names(sources) == []


def test_guard_finds_dead_private_names():
    source = (
        "_kept, _dead = 1, 2\n"
        "_ANNOTATED: int = 3\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Unused:\n"
        "    def _used(self):\n        return _kept\n"
        "    def _stored(self):\n        self._stored = 1\n"
        "    def __init__(self):\n        pass\n"
        "def f(c):\n    return c._used()\n"
    )
    assert _dead_private_names({"m.py": source}) == [
        "m.py:_ANNOTATED", "m.py:_Unused", "m.py:_dead", "m.py:_recursive", "m.py:_stored"
    ]


def test_guard_counts_reads_from_other_modules():
    sources = {
        "a.py": "def _imported():\n    return 1\ndef _called():\n    return 2\n",
        "b.py": "from .a import _imported\nimport a\nx = a._called()\n",
    }
    assert _dead_private_names(sources) == []
