"""Compare two sets of benchmark results, for example a parent and a change.

    python3 bench/compare.py report PARENT.jsonl CHANGE.jsonl
    python3 bench/compare.py run PARENT_DIR CHANGE_DIR --workload W --out-dir DIR

`run` makes PAIRS alternating pairs at the run length BENCHMARK.json sets:
pair i runs both checkouts on seed SEED_BASE + i, the parent first on even i
and the change first on odd i, and appends to DIR/parent.jsonl and
DIR/change.jsonl (run.py --out records).
`report` pairs runs by workload, trace mode and seed, and prints one row per
workload and metric with each side's median and quartiles, the change's wins
and a verdict (stats.verdict): improved, no worse, unresolved or worse.  Bounds
are the end-to-end bounds in BENCHMARK.json; per-layer rows get no verdict;
the failed-ops row is worse when the change fails more ops than the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402
from common import ROOT  # noqa: E402

PAIRS = 10
SEED_BASE = 1000


def load(path: str) -> dict:
    """(workload, trace, metric) -> {seed: value}; also failed counts."""
    out: dict = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            meta, result = rec["meta"], rec["result"]
            key = (meta["workload"], meta["trace"])
            for name, metric in result["metrics"].items():
                out[key + (name,)][meta["seed"]] = metric["value"]
            out[key + ("failed",)][meta["seed"]] = result["failed"]
    return out


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bounds() -> dict:
    return {m["name"]: (m["better"], m["bound"]) for m in benchmark_spec()["end_to_end"]}


def _summary(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = stats.quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def report(parent_path: str, change_path: str) -> int:
    parent, change = load(parent_path), load(change_path)
    limits = bounds()
    print(f"{'workload':17} {'metric':40} {'parent median [q1, q3]':30} "
          f"{'change median [q1, q3]':30} {'wins':>6}  verdict")
    for key in sorted(set(parent) & set(change), key=lambda k: (k[0], k[1], k[2])):
        seeds = sorted(set(parent[key]) & set(change[key]))
        if not seeds:
            continue
        p = [parent[key][s] for s in seeds]
        c = [change[key][s] for s in seeds]
        workload, trace, name = key
        if name in limits and not trace:
            better, bound = limits[name]
            verdict, wins, pairs = stats.verdict(p, c, better, bound)
            wins_text = f"{wins}/{pairs}"
        elif name == "failed":
            verdict, wins_text = ("worse" if sum(c) > sum(p) else "no worse"), ""
        else:
            verdict, wins_text = "", ""
        print(f"{workload:17} {name:40} {_summary(p):30} {_summary(c):30} "
              f"{wins_text:>6}  {verdict}")
    return 0


def run_pairs(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    seconds = benchmark_spec()["run_seconds"]
    sides = [("parent", args.parent_dir), ("change", args.change_dir)]
    for i in range(PAIRS):
        for name, checkout in (sides if i % 2 == 0 else sides[::-1]):
            cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
                   "--seed", str(SEED_BASE + i), "--seconds", str(seconds), "--trace", "0",
                   "--out", os.path.abspath(os.path.join(args.out_dir, f"{name}.jsonl"))]
            proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
    return report(os.path.join(args.out_dir, "parent.jsonl"),
                  os.path.join(args.out_dir, "change.jsonl"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare benchmark results.")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("report")
    p.add_argument("parent")
    p.add_argument("change")
    p = sub.add_parser("run")
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--workload", required=True)
    p.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    if args.mode == "report":
        return report(args.parent, args.change)
    return run_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
