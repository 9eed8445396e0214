"""The timed operations of the three in-process workloads.

Each takes an op from workloads.py and returns (t0, t1, output): the timed
interval and what the gate checks.

Fresh processes whose start-up is timed (fresh.py) import this module, so it
imports nothing that the interpreter has not loaded already; paramod itself
is imported by import_for, once per process.
"""

from __future__ import annotations

import io
import sys
import time


def import_for(workload):
    """What the workload's process imports once, during set-up."""
    if workload == "orbit_warm":
        import paramod.cli  # noqa: F401
    elif workload == "membership_batch":
        import paramod.lattice  # noqa: F401
        import paramod.paramodular  # noqa: F401
    elif workload == "forest_scaling":
        import paramod.doublecover  # noqa: F401


def run_cli(argv):
    """cli.main(argv) with stdout captured: (exit code, stdout)."""
    cli = sys.modules["paramod.cli"]
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def cli_op(op):
    t0 = time.perf_counter()
    code, out = run_cli(op["argv"])
    t1 = time.perf_counter()
    return t0, t1, [code, out, False]


def membership_op(op):
    lattice, paramodular = sys.modules["paramod.lattice"], sys.modules["paramod.paramodular"]
    t0 = time.perf_counter()
    entries = paramodular.parse_matrix(op["matrix"])
    cert = paramodular.is_member(entries)
    m = image = None
    if cert.ok:
        m = paramodular.member(entries)
        image = paramodular.act(m, lattice.parse_character(op["char"], op["n"]))
    t1 = time.perf_counter()
    violation = cert.first_violation
    return t0, t1, {
        "flags": [cert.pattern_ok, cert.n_integral, cert.symplectic_ok],
        "violation": None if violation is None else list(violation[:2]),
        "monodromy": None if m is None else [list(r) for r in m.monodromy],
        "act": None if image is None else list(image.exponents),
    }


def forest_op(op):
    """What `paramod invariants` does after reading the file: parse, invariants, pairs."""
    doublecover = sys.modules["paramod.doublecover"]
    t0 = time.perf_counter()
    l2, forest = doublecover.forest_from_json(op["forest"])
    inv = doublecover.invariants(l2, forest)
    pairs = doublecover.detect_33_pairs(forest)
    t1 = time.perf_counter()
    return t0, t1, [inv.chi, inv.K2_resolved, list(inv.negligible_ids),
                     [list(p) for p in pairs], inv.has_33_pair]


IN_PROCESS = {"orbit_warm": cli_op, "membership_batch": membership_op,
              "forest_scaling": forest_op}
