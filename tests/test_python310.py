"""The sources stay within Python 3.10, the oldest version pyproject.toml declares.

Tests run on a newer interpreter, so syntax and regex constructs added
after 3.10 would pass them and still break ``import bicert`` on 3.10.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py")
)

# an escape or a character class, neither of which can quantify anything
_ESCAPE_OR_CLASS = re.compile(r"\\.|\[\^?\]?(?:\\.|[^\]\\])*\]", re.DOTALL)
# a quantifier followed by ``+`` (the ``?`` of ``(?`` is none), or ``(?>``
_POSSESSIVE_OR_ATOMIC = re.compile(r"(?<!\()[*+?]\+|\{[0-9]*(?:,[0-9]*)?\}\+|\(\?>")


def constructs_after_310(pattern: str) -> bool:
    """Does ``pattern`` hold a possessive quantifier or an atomic group?

    Both arrived in Python 3.11's ``re``; 3.10 rejects them at compile time.
    """
    return _POSSESSIVE_OR_ATOMIC.search(_ESCAPE_OR_CLASS.sub("_", pattern)) is not None


def regex_literals(tree: ast.AST) -> list[str]:
    """String literals inside the pattern argument of each ``re.<function>`` call."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"):
            continue
        args = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "pattern"]
        for arg in args:
            for part in ast.walk(arg):
                if isinstance(part, ast.Constant) and isinstance(part.value, (str, bytes)):
                    value = part.value
                    found.append(value.decode("latin-1") if isinstance(value, bytes) else value)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_310(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_no_regex_literal_needs_311():
    patterns = {
        str(path.relative_to(ROOT)): regex_literals(ast.parse(path.read_text(encoding="utf-8")))
        for path in SOURCES
    }
    assert patterns["src/bicert/formats.py"]  # the scan sees the parsers' patterns
    offending = [(name, p) for name, found in patterns.items() for p in found
                 if constructs_after_310(p)]
    assert offending == []


@pytest.mark.parametrize("pattern, newer", [
    (r"[0-9]++ ", True),
    (r"a*+b", True),
    (r"a?+", True),
    (r"a{2,3}+", True),
    (r"(?>ab)c", True),
    (r"(?:[0-9]+ [0-9]+\n)*", False),
    (r"\++", False),
    (r"[+*]+", False),
    (r"[]+]+", False),
    (r"a+?", False),
    (r"a{x}+", False),  # braces that are no quantifier are literal
    (r"(?=a)+", False),
    (r"\(?+", True),
])
def test_detector(pattern, newer):
    assert constructs_after_310(pattern) == newer
    re.compile(pattern)  # every case is valid on this interpreter
