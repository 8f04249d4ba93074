"""The sources check their invariants with raised errors, never ``assert``.

``python -O`` strips assert statements, so an invariant written as one
would stop being checked, and a bicert bug would surface as a wrong answer
or a crash instead of ``InternalInvariantError`` (exit code 3).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def assert_lines(tree: ast.AST) -> list[int]:
    """Line numbers of the assert statements in ``tree``."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_the_scan_sees_the_package():
    assert ROOT / "src" / "bicert" / "checkers.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_assert_statement(path):
    assert assert_lines(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_detector():
    source = "def f(x):\n    if x:\n        assert x, 'message'\n    return x  # assert\n"
    assert assert_lines(ast.parse(source)) == [3]
