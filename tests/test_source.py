"""Static checks over the source of the ``apio`` package."""

from __future__ import annotations

import ast
from pathlib import Path

import apio

PACKAGE = Path(apio.__file__).resolve().parent
# the code that may call what the package defines
CALLERS = [PACKAGE.parents[1] / part for part in ("src", "tests", "perfbench", "benchmarks")]


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each name the module imports and never reads. A
    ``from __future__`` import changes how the module compiles, so it
    counts as used."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    unused = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert unused == []


def test_an_unused_import_is_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from a import b, c\n"
        "def f() -> c:\n"
        "    return os.sep\n"
    )
    assert _unused_imports(tree) == [(3, "j"), (4, "b")]


def _dead_definitions(tree: ast.Module, referenced: set[str]) -> list[tuple[int, str]]:
    """(line, name) of each function, method and class ``tree`` defines
    that is not in ``referenced``, save dunder methods, which Python calls
    by itself."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, kinds)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in referenced
    )


def _references(tree: ast.Module) -> set[str]:
    """Every name, attribute and string constant in ``tree``. A string
    counts because the benchmark's tracer wraps functions by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_definition_is_used_somewhere():
    referenced = set().union(*(
        _references(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        for root in CALLERS
        for path in root.rglob("*.py")
    ))
    dead = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, name in _dead_definitions(ast.parse(path.read_text(encoding="utf-8"), str(path)), referenced)
    ]
    assert dead == []


def test_a_dead_definition_is_found():
    tree = ast.parse(
        "class Used:\n"
        "    def __init__(self): ...\n"
        "    def stale(self): ...\n"
        "    def wrapped(self): ...\n"
        "def helper(): ...\n"
        "def unused(): ...\n"
        "Used().wrapped\n"
        "wrap(Used, 'helper')\n"
    )
    assert _dead_definitions(tree, _references(tree)) == [(3, "stale"), (6, "unused")]
