"""Checks on the package source itself."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from paramod import cli

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


def test_validating_records_are_built_through_their_constructor():
    # tuple.__new__(X, ...) skips X.__new__, so a record whose __new__ checks or
    # normalises its fields must not be built that way; a record without one,
    # such as ForestNode, may be
    nodes = list(_package_nodes())
    validating = {node.name for _, node in nodes if isinstance(node, ast.ClassDef)
                  and any(isinstance(item, ast.FunctionDef) and item.name == "__new__"
                          for item in node.body)}
    assert validating == {"Character", "TorsionPoint", "LabeledSet", "Permutation",
                          "ChernDatum"}
    offenders = [f"{name}:{node.lineno} {node.args[0].id}" for name, node in nodes
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "__new__"
                 and isinstance(node.func.value, ast.Name) and node.func.value.id == "tuple"
                 and node.args and isinstance(node.args[0], ast.Name)
                 and node.args[0].id in validating]
    assert offenders == []


def test_no_cli_payload_holds_a_named_tuple(monkeypatch):
    # the JSON writer prints any tuple as an array, so a record left in a
    # payload would lose its field names and nothing else would fail
    with open(ROOT / "tests" / "golden" / "stdout.json", encoding="utf-8") as fh:
        commands = [key.split(" ") for key in json.load(fh)]
    commands += [
        ["classify", "--Q", "chi0", "--root", "0,0,0,0"],
        ["classify", "--Q", "psi1", "--root", "0,0,0,1"],
        ["act", "--gen", "J", "--char", "0,0,1,0", "--n", "4"],
        ["act", "--matrix", "1,0,1,0,0,1,0,0,0,0,1,0,0,0,0,1", "--char", "psi2"],
        ["membership", "--matrix", "1,0,0,0,0,1,0,0,0,0,1,0,0,1/3,0,1"],
    ]
    records = []

    def walk(value, where):
        if hasattr(value, "_fields"):
            records.append(f"{where}: {type(value).__name__}")
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{where}.{key}")
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                walk(item, f"{where}[{i}]")

    monkeypatch.chdir(ROOT)
    for argv in commands:
        args = cli._build_parser().parse_args(argv)
        walk(args.run[0](args), " ".join(argv))
    assert records == []
