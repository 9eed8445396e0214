"""Run every stored command under several interpreters, two hash seeds and -O.

    python tools/golden_matrix.py --python python3.10 --python python3.13

Each key of tests/golden/stdout.json runs as `python -m paramod` (the rule
is tests/golden/regenerate.py's ``run``) under each interpreter named with
--python (default: the one running this tool), once with PYTHONHASHSEED 0,
once with 1 and once under -O with a random hash seed, with the repository's
src on PYTHONPATH.  Each run must exit 0 and print the stored bytes.  The
tool names the first run that does not and exits 1; otherwise it prints one
line per interpreter and exits 0.  Standard library only.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests" / "golden"))
import regenerate  # noqa: E402  (the stored-command rule, shared)

# (environment additions, interpreter flags); the -O run keeps no fixed seed
CONFIGS = (({"PYTHONHASHSEED": "0"}, ()), ({"PYTHONHASHSEED": "1"}, ()), ({}, ("-O",)))


def first_mismatch(python: str, stored: dict) -> str | None:
    """The first run of python whose exit code or stdout is wrong, described; else None."""
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for key, expected in stored.items():
        for extra_env, flags in CONFIGS:
            proc = regenerate.run(key, python, flags, {**env, **extra_env})
            same = proc.stdout == expected.encode("utf-8")
            if proc.returncode != 0 or not same:
                setting = " ".join([*(f"{k}={v}" for k, v in extra_env.items()), *flags])
                return (f"{python} ({setting}): `paramod {key}` exited {proc.returncode}, "
                        f"stdout {'matches' if same else 'differs from'} the stored bytes")
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--python", action="append", default=[],
                        help="an interpreter to run the stored commands under (repeatable)")
    args = parser.parse_args(argv)
    with open(regenerate.STORED, encoding="utf-8") as fh:
        stored = json.load(fh)
    for python in args.python or [sys.executable]:
        mismatch = first_mismatch(python, stored)
        if mismatch is not None:
            print(f"mismatch: {mismatch}", file=sys.stderr)
            return 1
        print(f"{python}: {len(stored)} stored commands x {len(CONFIGS)} settings match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
