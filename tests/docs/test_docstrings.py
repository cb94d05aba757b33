"""Docstring coverage gate for the documented-API directories.

CI runs ruff's pydocstyle (``D``) rules over ``src/repro/core``,
``src/repro/backends``, ``src/repro/objectives``,
``src/repro/sequencing``, ``src/repro/service`` and
``src/repro/telemetry`` (see
``[tool.ruff]`` in pyproject.toml); this AST-based check enforces the
presence half of those rules inside the tier-1 suite as well, so a
missing public docstring fails fast even where ruff is not installed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

CHECKED_DIRS = (
    "core",
    "backends",
    "objectives",
    "sequencing",
    "service",
    "telemetry",
)


def _public_functions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            yield node


def _checked_files():
    for directory in CHECKED_DIRS:
        yield from sorted((SRC / directory).glob("*.py"))


@pytest.mark.parametrize("path", list(_checked_files()), ids=lambda p: p.name)
def test_public_symbols_have_docstrings(path):
    tree = ast.parse(path.read_text())
    missing = []
    if ast.get_docstring(tree) is None:
        missing.append(f"module {path.name}")
    for node in _public_functions(tree):
        if ast.get_docstring(node) is None:
            missing.append(f"{type(node).__name__} {node.name} (line {node.lineno})")
    assert not missing, f"{path}: missing docstrings: {missing}"


def test_one_line_summaries_end_like_sentences():
    """The summary line of every public core/backends docstring is
    non-empty (a one-line summary, per the docstring pass)."""
    offenders = []
    for path in _checked_files():
        tree = ast.parse(path.read_text())
        for node in _public_functions(tree):
            doc = ast.get_docstring(node)
            if doc is None:
                continue
            first = doc.strip().splitlines()[0].strip()
            if not first:
                offenders.append(f"{path.name}:{node.name}")
    assert not offenders, offenders
