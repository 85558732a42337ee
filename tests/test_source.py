"""Static checks over the source of the ``apio`` package."""

from __future__ import annotations

import ast
from pathlib import Path

import apio

PACKAGE = Path(apio.__file__).resolve().parent


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
