"""Every name a library module imports is used in that module.

The package root re-exports by design and is left out.  A name imported only
so that other code can find it under a module (the ``obat.determinize``
re-exports) carries ``# noqa: F401`` on its line; ``from __future__`` imports
bind no name.
"""

import ast
import pathlib

import pytest

import obat

MODULES = sorted(p for p in pathlib.Path(obat.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never read as a name, in line order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((n for n in imported if n not in used), key=imported.get)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_a_leftover():
    source = (
        "from __future__ import annotations\n"
        "from .tiles import (\n    Tile,\n    top_successor,\n)\n"
        "from .tiles import product  # noqa: F401\n"
        "import os.path\n"
        "def f(t: Tile):\n    return os.path.join(t)\n"
    )
    assert unused_imports(source) == ["top_successor"]
