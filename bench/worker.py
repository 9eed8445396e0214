"""Runs one workload's operations against paramod, checks every output and
reports what it saw.

Started by run.py through common.module_cmd("worker") in a fresh interpreter
with paramod's src/ on the path; stdin is {"workload", "seed", "seconds",
"trace", "setup_op", "forest_dir"} and stdout one JSON result.

Inputs are made one cycle at a time from the seed (workloads.cycles), so one
cycle's inputs are resident at a time and no generated input repeats.  The
gate checks each output right after its op.  Making inputs and checking
outputs are left out of the timed window.  The loop is closed with one
client: the next op starts when the previous one ends.  It always ends on a
cycle boundary, once the time is up and at least stats.MIN_ABOVE latency
samples lie above the 90th percentile.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time

import gate
import ops
import speed
import stats
import tracing
import workloads
from common import ROOT, child_env, module_cmd
from fresh import SPANS_MARKER

FAILURES_KEPT = 20


def subprocess_op(op, traced=False):
    """One CLI call in a fresh interpreter; traced calls go through fresh's cli-op.

    Returns (t0, t1, [exit code, stdout, traceback seen], spans or None).
    """
    if traced:
        cmd = module_cmd("fresh", "cli-op", json.dumps(op["argv"]))
    else:
        cmd = [sys.executable, "-m", "paramod", *op["argv"]]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, env=child_env())
    t1 = time.perf_counter()
    out = proc.stdout.decode("utf-8", "replace")
    err = proc.stderr.decode("utf-8", "replace")
    spans = None
    if traced and SPANS_MARKER in err:
        err, _, blob = err.partition(SPANS_MARKER)
        spans = json.loads(blob)
    return t0, t1, [proc.returncode, out, "Traceback" in err], spans


def guarded(run_op, op):
    """Run one op: (t0, t1, output); an exception from paramod is a failed op."""
    t0 = time.perf_counter()
    try:
        return run_op(op)[:3]
    except Exception as exc:  # recorded and reported by the gate
        return t0, time.perf_counter(), {"error": f"{type(exc).__name__}: {exc}"}


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process alone, in MB.

    ru_maxrss will not do: a child's counts the parent's resident set at the
    moment it was started, so a worker's would read at least run.py's.
    VmHWM belongs to the address space, which starts anew at exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def children_peak_rss_mb() -> float:
    """Largest ru_maxrss of the CLI children, in MB.

    Each child's figure is at least this worker's resident set when it was
    started; own_peak_rss_mb() at the end bounds that floor.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def describe(op) -> str:
    if "argv" in op:
        return " ".join(op["argv"])
    if "matrix" in op:
        return f"matrix {op['matrix']}"
    return f"forest of {len(op['forest']['nodes'])} nodes"


class Harness:
    """Makes the cycles of one input stream and checks each op's output.

    `spent` is the time taken by both, which the loops leave out of the window.
    """

    def __init__(self, spec, stream, expected):
        self.workload = spec["workload"]
        self.forest_dir = spec["forest_dir"]
        self.stream = workloads.cycles(self.workload, spec["seed"], self.forest_dir, stream)
        self.expected = expected
        self.files: dict = {}
        self.failed = 0
        self.failures: list[dict] = []
        self.spent = 0.0

    def next_cycle(self) -> list[dict]:
        t0 = time.perf_counter()
        cycle, self.files = next(self.stream)
        for name, payload in self.files.items():
            with open(os.path.join(ROOT, self.forest_dir, name), "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        self.spent += time.perf_counter() - t0
        return cycle

    def check(self, op, out) -> None:
        t0 = time.perf_counter()
        reason = gate.check_op(self.workload, op, out, self.expected, self.files)
        if reason is not None:
            self.failed += 1
            if len(self.failures) < FAILURES_KEPT:
                self.failures.append({"op": describe(op), "reason": reason})
        self.spent += time.perf_counter() - t0


# -- loops ------------------------------------------------------------------------------


def timed_loop(workload, harness, seconds):
    """Closed loop over whole cycles until time is up and the tail is sampled.

    Returns raw op seconds, the window length without the speed samples and
    the harness's own work, cycles done and each op's speed factor (speed.py).
    """
    run_op = ops.IN_PROCESS.get(workload, subprocess_op)
    lat = []
    meter = speed.Meter(workload)
    meter.sample(0)
    outside_before = meter.spent + harness.spent
    done = 0
    t_start = time.perf_counter()
    while True:
        for op in harness.next_cycle():
            t0, t1, out = guarded(run_op, op)
            lat.append(t1 - t0)
            harness.check(op, out)
            meter.sample(len(lat), force=False)
        done += 1
        elapsed = (time.perf_counter() - t_start
                   - (meter.spent + harness.spent - outside_before))
        if elapsed >= seconds and \
                stats.above(lat, stats.percentile(lat, 90)) >= stats.MIN_ABOVE:
            meter.sample(len(lat))
            return lat, elapsed, done, meter.factors(len(lat))


def traced_loop(workload, harness, count):
    """Fixed number of whole cycles with spans; returns the tracer and op times.

    Each op's root span covers exactly the interval its latency is taken over.
    """
    tracer = tracing.Tracer()
    meter = speed.Meter(workload)
    meter.sample(0)
    lat = []
    if workload in ops.IN_PROCESS:
        tracing.install(tracer)
        run_op = ops.IN_PROCESS[workload]
        for _ in range(count):
            for op in harness.next_cycle():
                idx = tracer.begin_op(len(lat))
                t0, t1, out = guarded(run_op, op)
                tracer.end_op(idx, t0, t1)
                lat.append(t1 - t0)
                harness.check(op, out)
                meter.sample(len(lat), force=False)
    else:
        for _ in range(count):
            for op in harness.next_cycle():
                t0, t1, out, spans = subprocess_op(op, traced=True)
                root = tracer.add("op", t0, t1, -1, len(lat))
                if spans is not None:
                    base = len(tracer)
                    for i, nid in enumerate(spans["name"]):
                        p = spans["parent"][i]
                        tracer.add(spans["names"][nid], spans["start"][i], spans["end"][i],
                                   root if p < 0 else base + p, len(lat))
                    for key, n in spans["counters"].items():
                        tracer.count(key, n)
                lat.append(t1 - t0)
                harness.check(op, out)
                meter.sample(len(lat), force=False)
    meter.sample(len(lat))
    return tracer, lat, meter.factors(len(lat))


def layer_metrics(tracer, factors) -> dict:
    """Per-layer numbers from the spans: calls, and scaled ms per op inclusive / self."""
    ops_done = len(factors)
    spans = tracer.spans()
    totals = tracing.layer_totals(spans, factors)
    out = {}
    for name, row in totals.items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.total_ms"] = 1e3 * row["total"] / ops_done
        out[f"{name}.self_ms"] = 1e3 * row["self"] / ops_done
    counters = spans["counters"]
    closure_composes = tracing.child_count(spans, "orbits.compose", {"orbits.group_closure"})
    actions = (tracing.child_count(spans, "paramodular.act", {"orbits.orbits_all"})
               + tracing.child_count(spans, "paramodular.act_pair", {"orbits.orbits_all"}))
    states = counters.get("orbits_all.states", 0)
    nodes = counters.get("forest.nodes", 0)
    lookups = totals.get("doublecover.node", {}).get("calls", 0)
    out["orbits.closure.useful_ratio"] = (counters.get("closure.new", 0) / closure_composes
                                          if closure_composes else 0.0)
    out["orbits.actions_per_state"] = actions / states if states else 0.0
    out["doublecover.node_lookups"] = lookups
    out["doublecover.lookups_per_node"] = lookups / nodes if nodes else 0.0
    out["trace.spans"] = len(tracer)
    out["trace.ops"] = ops_done
    out["trace.self_sum_per_op_ms"] = 1e3 * sum(r["self"] for r in totals.values()) / ops_done
    share = sum(r["self"] for n, r in totals.items()
                if n.startswith(("classifier.", "chern.")))
    all_self = sum(r["self"] for r in totals.values())
    out["trace.classifier_chern_share_pct"] = 100.0 * share / all_self if all_self else 0.0
    return out


def main():
    spec = json.load(sys.stdin)
    workload = spec["workload"]
    ops.import_for(workload)
    expected = gate.load_expected()
    rss_before_ops = own_peak_rss_mb()  # interpreter, paramod (in-process) and harness
    run_op = ops.IN_PROCESS.get(workload, subprocess_op)
    guarded(run_op, spec["setup_op"])  # let lazy set-up and caches settle before timing
    harness = Harness(spec, "timed", expected)
    lat, elapsed, cycles_done, factors = timed_loop(workload, harness, spec["seconds"])
    result = {"lat": lat, "factors": factors, "elapsed": elapsed, "cycles": cycles_done,
              "harness_s": harness.spent, "rss_before_ops_mb": rss_before_ops,
              "worker_rss_mb": own_peak_rss_mb(),
              "rss_mb": (own_peak_rss_mb() if workload in ops.IN_PROCESS
                         else children_peak_rss_mb())}
    failed, failures, traced_ops = harness.failed, harness.failures, 0
    if spec["trace"]:
        traced = Harness(spec, "trace", expected)
        tracer, traced_lat, factors = traced_loop(workload, traced,
                                                  workloads.TRACE_CYCLES[workload])
        result["trace"] = layer_metrics(tracer, factors)
        result["trace"]["trace.traced_mean_ms"] = 1e3 * statistics.mean(
            dt * f for dt, f in zip(traced_lat, factors))
        failed += traced.failed
        failures += traced.failures[:FAILURES_KEPT - len(failures)]
        traced_ops = len(traced_lat)
    result.update(failed=failed, failures=failures, traced_ops=traced_ops)
    json.dump(result, sys.stdout)

