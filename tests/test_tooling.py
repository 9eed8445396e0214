"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "paramod"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check may rely on one
    paths = sorted(SRC.glob("*.py"))
    assert paths
    offenders = [f"{path.name}:{node.lineno}"
                 for path in paths
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Assert)]
    assert offenders == []
