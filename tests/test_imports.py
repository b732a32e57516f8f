"""Every name a library module imports is used in that module, and every
module-level private name is read somewhere in the package.

The package root re-exports by design and is left out of the import check.
A name imported only so that other code can find it under a module (the
``obat.determinize`` re-exports) carries ``# noqa: F401`` on its line;
``from __future__`` imports bind no name.
"""

import ast
import pathlib

import pytest

import obat

SOURCES = sorted(pathlib.Path(obat.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def unread_privates(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each module-level ``_name`` (function, class or
    constant, not dunder) of ``sources`` that is never read, in module and
    line order.

    A read is a load of the name in its own module, an import of it by name
    from its module (the import check above then wants the import used), or
    an attribute ``module._name``.  Reads are per module, so a name defined in
    two modules needs a read of each.
    """
    defined, read = [], set()
    for path, source in sources.items():
        module = path.removesuffix(".py")
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(path, node.lineno, module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module:
                read.update((node.module.split(".")[-1], alias.name) for alias in node.names)
    return [f"{path}:{name}" for path, _, module, name in sorted(defined) if (module, name) not in read]


def test_every_private_name_is_read():
    assert unread_privates({p.name: p.read_text(encoding="utf-8") for p in SOURCES}) == []


def test_private_guard_sees_a_leftover():
    sources = {
        "a.py": "_LIMIT = 3\ndef _lex_key(k):\n    return k\ndef _walk(m):\n    return m\nclass _Dead:\n    pass\n",
        "b.py": "from .a import _LIMIT, _walk\n_Alias: type = dict\ndef _lex_key(k):\n    return k\n"
        "def f(x):\n    return _walk(x) + _LIMIT + _lex_key(x)\n",
        "c.py": "from . import a\ndef g(x: a._Dead):\n    return x\n",
    }
    assert unread_privates(sources) == ["a.py:_lex_key", "b.py:_Alias"]
