"""Shared fixture: stored stdout bytes of fixed CLI commands (tests/golden/)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def matches_stored_stdout():
    """Run `python -m paramod argv` once; compare its stdout with the stored bytes.

    File arguments are relative to the repository root.  Equality with a
    fixed file implies run-to-run determinism as well.
    """
    with open(ROOT / "tests" / "golden" / "stdout.json", encoding="utf-8") as fh:
        stored = json.load(fh)

    def check(argv) -> None:
        key = " ".join(argv)
        assert key in stored, f"no stored stdout for {key!r}; see tests/golden/regenerate.py"
        out = subprocess.run([sys.executable, "-m", "paramod", *argv], cwd=ROOT,
                             capture_output=True, check=True).stdout
        assert out == stored[key].encode("utf-8"), f"stdout of `paramod {key}` changed"

    return check
