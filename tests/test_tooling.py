"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "paramod"


def _package_nodes():
    """(file name, node) for every AST node of every module in the package."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check may rely on one
    offenders = [f"{name}:{node.lineno}" for name, node in _package_nodes()
                 if isinstance(node, ast.Assert)]
    assert offenders == []


def test_no_dataclasses_import_in_package():
    # records are NamedTuples: importing dataclasses (and with it inspect)
    # would add to the start-up time and memory of every CLI call
    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            return [node.module or ""]
        return []

    offenders = [f"{name}:{node.lineno}" for name, node in _package_nodes()
                 if any(m.partition(".")[0] == "dataclasses" for m in imported(node))]
    assert offenders == []


def test_no_unused_imports_in_package():
    # a stale import keeps a dependency between modules that nothing needs
    imported, used = {}, set()
    for name, node in _package_nodes():
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[name, alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[name, alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add((name, node.id))
    offenders = [f"{name}:{line} {ident}" for (name, ident), line in sorted(imported.items())
                 if (name, ident) not in used]
    assert offenders == []
