"""Rewrite stdout.json: the stdout of `python -m paramod` for every stored command.

    PYTHONPATH=src python tests/golden/regenerate.py

Each key is one command line, its arguments joined by single spaces; file
arguments are relative to the repository root.  To store a new command, add
its key with any value and run this.  Run it only when a change to the CLI
output is intended: the CLI tests compare each command's stdout with these
bytes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
STORED = Path(__file__).resolve().parent / "stdout.json"


def run(key: str, python: str = sys.executable, flags: tuple = (),
        env: dict | None = None) -> subprocess.CompletedProcess:
    """Run the stored command key as `python [flags] -m paramod` from the root."""
    return subprocess.run([python, *flags, "-m", "paramod", *key.split(" ")],
                          cwd=ROOT, env=env, capture_output=True)


def main() -> int:
    with open(STORED, encoding="utf-8") as fh:
        keys = list(json.load(fh))
    stored = {}
    for key in keys:
        proc = run(key)
        proc.check_returncode()
        stored[key] = proc.stdout.decode("utf-8")
    with open(STORED, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
