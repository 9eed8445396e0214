"""The paramod benchmark: one workload, one seed, every output checked.

    python3 bench/run.py --workload orbit_warm --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; paramod is taken from its src/.  The last
line of stdout is the result: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a separate traced phase.  --out FILE also appends the
result with its metadata as one JSON line, which compare.py reads.
See WORKLOADS.md for the workloads, the metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from common import BENCH, ROOT, SRC, child_env, module_cmd  # noqa: E402

SETUP_REPEATS = 11
PROBE_REPEATS = 7
WORKER_TIMEOUT = 150
IMPORT_MODULES = ("lattice", "paramodular", "classifier", "orbits", "chern",
                  "doublecover", "cli")

END_TO_END = {"setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "throughput_ops_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "interpreter.start_ms": "ms",
    "import.total_ms": "ms",
    **{f"import.{m}_ms": "ms" for m in IMPORT_MODULES},
    "cli.main.calls": "count",
    "cli.main.self_ms": "ms",
    "paramodular.special_generators.calls": "count",
    "paramodular.special_generators.total_ms": "ms",
    "paramodular.special_generators.per_op": "1/op",
    "paramodular.is_member.calls": "count",
    "paramodular.is_member.total_ms": "ms",
    "paramodular.member.calls": "count",
    "paramodular.member.self_ms": "ms",
    "paramodular.parse_matrix.total_ms": "ms",
    "paramodular.act.calls": "count",
    "paramodular.act.total_ms": "ms",
    "paramodular.act_pair.calls": "count",
    "paramodular.act_pair.self_ms": "ms",
    "lattice.character_table.calls": "count",
    "lattice.character_table.total_ms": "ms",
    "lattice.square_roots.calls": "count",
    "lattice.square_roots.total_ms": "ms",
    "lattice.parse_character.total_ms": "ms",
    "orbits.orbits_all.calls": "count",
    "orbits.orbits_all.self_ms": "ms",
    "orbits.group_closure.self_ms": "ms",
    "orbits.permutation_of.calls": "count",
    "orbits.permutation_of.total_ms": "ms",
    "orbits.compose.calls": "count",
    "orbits.closure.useful_ratio": "ratio",
    "orbits.actions_per_state": "ratio",
    "classifier.classify.calls": "count",
    "classifier.surface_report.total_ms": "ms",
    "classifier.moduli_decomposition.total_ms": "ms",
    "chern.dimension_ledger.total_ms": "ms",
    "chern.eagon_northcott_checks.total_ms": "ms",
    "doublecover.forest_from_json.total_ms": "ms",
    "doublecover.invariants.self_ms": "ms",
    "doublecover.is_negligible.calls": "count",
    "doublecover.is_negligible.total_ms": "ms",
    "doublecover.detect_33_pairs.total_ms": "ms",
    "doublecover.node_lookups": "count",
    "doublecover.lookups_per_node": "ratio",
    "trace.overhead_pct": "%",
    "trace.ops": "count",
    "trace.spans": "count",
    "trace.op_self_ms": "ms",
    "trace.self_sum_per_op_ms": "ms",
    "trace.untraced_mean_ms": "ms",
    "trace.classifier_chern_share_pct": "%",
}


def _fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(1)


def _run(cmd, **kwargs):
    return subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT, **kwargs)


def metadata(args) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, cwd=ROOT,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "paramod", "*.py"))):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(), "commit": commit,
            "src_sha256": h.hexdigest()[:16], "nproc": os.cpu_count(),
            "loadavg_start": list(os.getloadavg()), "started": time.time()}


def setup_seconds(workload: str, op: dict) -> tuple[list[float], list[float]]:
    """Fresh interpreter to the end of the first op, several times: raw seconds
    and the speed factor around each (speed.py)."""
    times, factors = [], []
    for _ in range(SETUP_REPEATS):
        before = speed.reference_ms(workload)
        if workload == "cli_cold":
            t0 = time.perf_counter()
            proc = _run([sys.executable, "-m", "paramod", *op["argv"]])
            dt = time.perf_counter() - t0
            ok = proc.returncode == 0
        else:
            spec = json.dumps({"workload": workload, "op": op})
            t0 = time.perf_counter()
            with subprocess.Popen(module_cmd("fresh", "setup"), stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                                  text=True) as proc:
                proc.stdin.write(spec)
                proc.stdin.close()
                line = proc.stdout.readline()
                dt = time.perf_counter() - t0
                proc.stdout.read()
            ok = line == "done\n" and proc.returncode == 0
        if not ok:
            _fail(f"set-up probe for {workload} failed")
        times.append(dt)
        factors.append(2 * speed.REF_MS / (before + speed.reference_ms(workload)))
    return times, factors


def probe_layers() -> dict:
    """Interpreter start and per-module import self time, medians of several runs."""
    starts, imports = [], {m: [] for m in ("total",) + IMPORT_MODULES}
    pattern = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        _run([sys.executable, "-c", "pass"])
        starts.append(time.perf_counter() - t0)
        err = _run([sys.executable, "-X", "importtime", "-c", "import paramod.cli"]).stderr
        rows = {m.group(4): (int(m.group(1)), int(m.group(2)))
                for m in pattern.finditer(err.decode())}
        imports["total"].append(rows["paramod.cli"][1])
        for mod in IMPORT_MODULES:
            imports[mod].append(rows[f"paramod.{mod}"][0])
    out = {"interpreter.start_ms": 1e3 * statistics.median(starts)}
    for mod, values in imports.items():
        out[f"import.{mod}_ms"] = statistics.median(values) / 1e3
    return out


def known_faults(tmp: str) -> list[dict]:
    """Run the inputs that break the exit-code contract today, once each."""
    report = []
    for fault in workloads.KNOWN_FAULTS:
        if "file" in fault:
            with open(os.path.join(tmp, fault["file"]), "w", encoding="utf-8") as fh:
                json.dump(fault["payload"], fh)
        argv = [a.replace("{dir}", os.path.relpath(tmp, ROOT)) for a in fault["argv"]]
        proc = _run([sys.executable, "-m", "paramod", *argv])
        traceback = b"Traceback" in proc.stderr
        report.append({"argv": fault["argv"], "exit": proc.returncode, "traceback": traceback,
                       "contract_ok": proc.returncode == fault["expect"] and not traceback,
                       "documented": fault["fault"]})
    return report


def run_worker(spec: dict) -> dict:
    try:
        proc = subprocess.run(module_cmd("worker"), input=json.dumps(spec).encode(),
                              capture_output=True, env=child_env(), cwd=ROOT,
                              timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        _fail(f"worker did not finish within {WORKER_TIMEOUT} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace")[-4000:])
        _fail(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout)


def run_all(args) -> int:
    """Run every workload in turn and print each one's metrics by name and unit."""
    rows, code = [], 0
    for workload in workloads.WORKLOADS:
        child = ["--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            child += ["--out", args.out]
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), *child],
                              capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-2]))
        if proc.returncode != 0 or not lines:
            code = 1
            continue
        result = json.loads(lines[-1])
        code = code or int(not result["correct"])
        rows += [(workload, name, m["value"], m["unit"])
                 for name, m in result["metrics"].items()]
        rows.append((workload, "correct", result["correct"],
                     f"{result['failed']} of {result['attempted']} failed"))
    for row in rows:
        print(f"{row[0]:17} {row[1]:42} {row[2]!s:>22} {row[3]}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result and its metadata to this JSONL file")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not os.path.isfile(os.path.join(SRC, "paramod", "cli.py")):
        _fail(f"no paramod sources under {SRC}; run from the root of a checkout")
    meta = metadata(args)
    meta["core"] = speed.pin_to_one_core()
    build_dir = os.path.join(ROOT, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="paramod-bench-", dir=build_dir)
    try:
        # compile once, so no timed process pays for writing bytecode
        _run([sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "paramod"), BENCH])
        setup_op = {k: v for k, v in workloads.setup_op(args.workload, args.seed).items()
                    if k != "check"}
        setup, setup_factors = setup_seconds(args.workload, setup_op)
        result = run_worker({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "setup_op": setup_op, "forest_dir": os.path.relpath(tmp, ROOT)})
        if args.workload == "cli_cold":
            meta["known_faults"] = known_faults(tmp)
            meta["known_fault_rate"] = (sum(not f["contract_ok"] for f in meta["known_faults"])
                                        / len(meta["known_faults"]))
        layers = probe_layers() if args.trace else {}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    raw = result["lat"]
    lat = [dt * f for dt, f in zip(raw, result["factors"])]
    window = result["elapsed"] * sum(lat) / sum(raw)
    setup_scaled = [t * f for t, f in zip(setup, setup_factors)]
    p90 = stats.percentile(lat, 90)
    attempted = len(lat) + result["traced_ops"]
    failures = result["failures"]
    meta.update({
        "ops": len(lat), "traced_ops": result["traced_ops"], "cycles": result["cycles"],
        "ops_per_cycle": len(lat) // result["cycles"], "elapsed_s": result["elapsed"],
        "harness_s": result["harness_s"], "setup_samples_s": setup_scaled,
        "percentile": 90, "samples": len(lat), "samples_above_p90": stats.above(lat, p90),
        "highest_percentile_with_10_above": stats.tail_percentile(lat),
        "error_rate": result["failed"] / attempted, "failures": failures,
        "rss_before_ops_mb": result["rss_before_ops_mb"],
        "worker_rss_mb": result["worker_rss_mb"],
        "speed_factor_median": statistics.median(result["factors"]),
        "wall": {"setup_s": statistics.median(setup),
                 "latency_p50_ms": 1e3 * stats.percentile(raw, 50),
                 "latency_p90_ms": 1e3 * stats.percentile(raw, 90),
                 "throughput_ops_s": len(raw) / result["elapsed"]},
    })
    if args.trace:
        traced = result["trace"]
        untraced_ms = 1e3 * statistics.mean(lat)
        traced.update(layers)
        traced["trace.untraced_mean_ms"] = untraced_ms
        traced["trace.op_self_ms"] = traced.get("op.self_ms", 0.0)
        traced["trace.overhead_pct"] = 100.0 * (traced["trace.traced_mean_ms"] / untraced_ms - 1)
        traced["paramodular.special_generators.per_op"] = (
            traced.get("paramodular.special_generators.calls", 0) / traced["trace.ops"])
        metrics = {name: {"value": traced.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {"setup_s": statistics.median(setup_scaled),
                  "latency_p50_ms": 1e3 * stats.percentile(lat, 50),
                  "latency_p90_ms": 1e3 * p90,
                  "throughput_ops_s": len(lat) / window,
                  "peak_rss_mb": result["rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    for failure in failures[:5]:
        print(f"FAILED {failure['op']}: {failure['reason']}")
    for fault in meta.get("known_faults", []):
        state = "fixed" if fault["contract_ok"] else "still present"
        print(f"known fault {state}: paramod {' '.join(fault['argv'])} -> exit {fault['exit']}"
              f"{' with traceback' if fault['traceback'] else ''} ({fault['documented']})")
    print(f"{args.workload} seed {args.seed}: {len(lat)} ops in {result['elapsed']:.1f} s, "
          f"{meta['samples_above_p90']} samples above p90, {result['failed']} of "
          f"{attempted} ops failed")
    if args.trace:
        print(f"trace: self times add up to {traced['trace.self_sum_per_op_ms']:.3f} ms per op, "
              f"the untraced mean is {traced['trace.untraced_mean_ms']:.3f} ms, overhead "
              f"{traced['trace.overhead_pct']:+.1f}%; classifier and chern take "
              f"{traced['trace.classifier_chern_share_pct']:.2f}% of op time")
    print(json.dumps({"meta": meta}, sort_keys=True))
    line = {"correct": not result["failed"], "attempted": attempted, "failed": result["failed"],
            "metrics": metrics}
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "result": line}, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
