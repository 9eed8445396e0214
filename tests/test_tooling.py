"""Checks on the package source itself."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "paramod"


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


def test_import_probe_finds_every_module_row():
    # bench/run.py reads one `-X importtime` row per module of IMPORT_MODULES
    # from a fresh `import paramod.cli`; a module imported lazily has no row,
    # and the traced benchmark run would stop on a KeyError
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    probed = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "IMPORT_MODULES")
    assert len(probed) == 7
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import paramod.cli"],
                         capture_output=True, text=True, env=env, check=True).stderr
    rows = set(re.findall(r"import time:\s+\d+ \|\s+\d+ \|\s*(\S+)", err))
    assert [m for m in probed if f"paramod.{m}" not in rows] == []


def test_no_private_imports_between_package_modules():
    # a module that needs another's underscore name should have it made
    # public, or the tracer and the reader both miss the call
    offenders = [f"{name}:{node.lineno} {alias.name}" for name, node in _package_nodes()
                 if isinstance(node, ast.ImportFrom)
                 and (node.level or (node.module or "").partition(".")[0] == "paramod")
                 for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def test_every_traced_target_resolves():
    # bench/tracing.py wraps each TARGETS name with getattr when a traced run
    # starts; a deleted or renamed function stops every `--trace 1` run
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "TARGETS")
    missing = []
    for short, names in targets.items():
        module = importlib.import_module(f"paramod.{short}")
        for name in names:
            path = name if isinstance(name, tuple) else (name,)
            obj = module
            for attr in path:
                obj = getattr(obj, attr, None)
            if not callable(obj):
                missing.append(".".join((short, *path)))
    assert missing == []
