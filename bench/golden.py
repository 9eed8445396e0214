"""Write expected_stdout.json: the stdout of every fixed command, both formats.

    python3 bench/golden.py

Run this only when a change to the CLI output is intended; the benchmark
gate compares each fixed command's stdout with these bytes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
import workloads  # noqa: E402
from common import ROOT, child_env  # noqa: E402


def main() -> int:
    expected = {}
    for cmd in workloads.FIXED:
        for fmt in workloads.FORMATS:
            argv = workloads.fixed_argv(cmd, fmt)
            proc = subprocess.run([sys.executable, "-m", "paramod", *argv], capture_output=True,
                                  env=child_env(), cwd=ROOT, check=True)
            expected[workloads.fixed_key(cmd, fmt)] = proc.stdout.decode("utf-8")
    with open(gate.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
