"""Invariants in the package raise errors: `python -O` strips `assert`."""

from __future__ import annotations

import ast
from pathlib import Path

import quivhom


def test_package_has_no_assert_statements():
    sources = sorted(Path(quivhom.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
