"""Paths and the child-process environment shared by the benchmark's parent
process and its workers."""

from __future__ import annotations

import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def child_env() -> dict:
    """Environment for every child: paramod from this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def module_cmd(module: str, *args: str) -> list[str]:
    """Command that runs main() of one of the benchmark's modules.

    The module is imported, so it loads from cached bytecode; run as a script
    it would be compiled from source, and that time and memory would count in
    what the caller measures.
    """
    code = f"import sys; sys.path.insert(0, {BENCH!r}); import {module}; {module}.main()"
    return [sys.executable, "-c", code, *args]
