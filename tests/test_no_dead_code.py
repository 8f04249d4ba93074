"""The sources hold no import or private name that nothing reads.

Both are what is left behind when the code that used them goes: an import
the module never reads, and a module-level ``_private`` name (a function,
class or constant) that no module in ``src/`` reads.  The scan reads names
only, so it misses a name read through ``getattr`` or a string; none is.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))
# an __init__.py imports to re-export, so its imports are read by its users
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def unused_imports(tree: ast.AST) -> list[str]:
    """The names ``tree`` imports, ``__future__`` aside, that it never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return sorted(imported - read)


def private_names(tree: ast.Module) -> set[str]:
    """The ``_private`` names that ``tree`` defines at module level, dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def read_names(tree: ast.AST) -> set[str]:
    """The names ``tree`` reads: loaded, read as an attribute, or imported from a module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


READ = set().union(*(read_names(parse(path)) for path in SOURCES))


def test_the_scan_sees_the_package():
    assert ROOT / "src" / "bicert" / "graph.py" in MODULES
    assert ROOT / "src" / "bicert" / "__init__.py" in SOURCES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(parse(path)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_private_name_is_read(path):
    assert sorted(private_names(parse(path)) - READ) == []


def test_detector():
    defining = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from itertools import chain, count as counter\n"
        "_USED: int = 1\n"
        "_DEAD = _ALSO_DEAD = 2\n"
        "__version__ = '0'\n"
        "def _helper(x: _Kept) -> None:\n"
        "    return counter(_USED)\n"
        "class _Kept:\n"
        "    _attribute = 3\n"
        "def public():\n"
        "    import json\n"
        "    return json\n"
    )
    reading = ast.parse("from .defining import _helper\nprint(_helper)\n")
    assert unused_imports(defining) == ["chain", "os"]
    assert unused_imports(reading) == []
    read = read_names(defining) | read_names(reading)
    assert private_names(defining) == {"_USED", "_DEAD", "_ALSO_DEAD", "_helper", "_Kept"}
    assert sorted(private_names(defining) - read) == ["_ALSO_DEAD", "_DEAD"]
