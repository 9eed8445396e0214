"""Seeded inputs for the four workloads.

A workload is an endless stream of cycles, made one at a time from the seed,
so no run repeats a generated input.  Every cycle of a workload holds the
same mix of operation classes (only the seeded arguments and the order
differ), and a run always ends on a cycle boundary, so two runs with
different seeds measure the same mix.  Cycle lengths are chosen so that the median and the
90th percentile fall inside one class of operations, not on the edge
between two classes of very different cost.

Each op is a dict of inputs for the op plus a "check" entry that only the
gate reads.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracles

# The ten commands of the CLI test suite's golden list.
GOLDEN = (
    ("orbits", "--set", "characters2"),
    ("orbits", "--set", "pairs48"),
    ("orbits", "--set", "psi12", "--closure"),
    ("membership", "--matrix", "0,0,1,0,0,0,0,2,-1,0,0,0,0,-1/2,0,0"),
    ("act", "--gen", "b(1,0,0)", "--char", "psi2"),
    ("classify", "--Q", "chi1", "--root", "0,0,1,0"),
    ("chern", "--bundle", "2,1,1"),
    ("chern", "--blowup", "2,-4"),
    ("moduli",),
    ("ledger",),
)
# Fixed commands whose stdout is stored byte for byte, in both formats.
FIXED = GOLDEN + (("orbits", "--set", "psi12"),)
FORMATS = ("json", "text")

# Inputs that break the CLI's exit-code contract (0 success, 2 bad input, 1 a
# failed internal check, never a traceback) when the benchmark was written.
# They run once per cli_cold run, outside the timed ops, and are reported.
KNOWN_FAULTS = (
    {"argv": ["membership", "--matrix", "1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1", "--d", "0"],
     "expect": 2, "fault": "ZeroDivisionError traceback, exit 1"},
    {"argv": ["invariants", "--forest", "{dir}/null_d.json"], "file": "null_d.json",
     "payload": {"L2": 4, "nodes": [{"id": "p", "d": None}]},
     "expect": 2, "fault": "TypeError traceback, exit 1"},
    {"argv": ["orbits", "--set", "psi12", "--closure", "--cap", "-1"],
     "expect": 2, "fault": "exit 0, the cap is ignored"},
)

WORKLOADS = ("cli_cold", "orbit_warm", "membership_batch", "forest_scaling")
# Whole cycles run in the traced phase of a traced run (fixed, so counts repeat).
TRACE_CYCLES = {"cli_cold": 1, "orbit_warm": 8, "membership_batch": 30,
                "forest_scaling": 2}


def fixed_argv(cmd, fmt: str) -> list[str]:
    return (["--format", "text"] if fmt == "text" else []) + list(cmd)


def fixed_key(cmd, fmt: str) -> str:
    return " ".join(fixed_argv(cmd, fmt))


def _fixed_op(cmd, fmt):
    return {"argv": fixed_argv(cmd, fmt), "check": {"fixed": fixed_key(cmd, fmt)}}


def _cli_op(rng, argv, check):
    fmt = rng.choice(FORMATS)
    return {"argv": fixed_argv(argv, fmt), "check": dict(check, format=fmt)}


def _exps_text(exps) -> str:
    return ",".join(str(e) for e in exps)


def _matrix_text(m) -> str:
    return ",".join(str(Fraction(x)) for row in m for x in row)


def random_word(rng, length: int) -> list[str]:
    return [rng.choice(list(oracles.GENERATORS)) for _ in range(length)]


def random_member(rng, length: int):
    """A group element as a product of generators, entries as Fractions."""
    m2 = oracles.word_matrix2(random_word(rng, length))
    return [[Fraction(x, 2) for x in row] for row in m2]


def corrupt(rng, m, kind: str):
    """Copy of a member that breaks the pattern or, keeping it, the form."""
    while True:
        rows = [list(r) for r in m]
        if kind == "pattern":
            if rng.random() < 0.5:
                i, j = rng.choice(oracles.EVEN_CELLS)
                rows[i][j] += rng.choice((1, -1, 3))
            else:
                i, j = rng.randrange(4), rng.randrange(4)
                rows[i][j] += Fraction(rng.choice((1, 2)), 3)
            return rows
        i, j = rng.randrange(4), rng.randrange(4)
        rows[i][j] += oracles.PATTERN[i][j] * rng.choice((2, 4, -2))
        if not oracles.preserves_standard_form(rows):
            return rows


def _random_char(rng):
    n = rng.choice((2, 4))
    return n, tuple(rng.randrange(n) for _ in range(4))


# -- generated CLI arguments ----------------------------------------------------


def gen_classify(rng):
    q = rng.choice(sorted(oracles.IMAGE)) if rng.random() < 0.5 else \
        tuple(rng.randrange(2) for _ in range(4))
    root = tuple(e + 2 * rng.randrange(2) for e in q)
    q_text = oracles.LABEL_OF[q] if rng.random() < 0.5 else _exps_text(q)
    return ["classify", "--Q", q_text, "--root", _exps_text(root)], \
        {"classify": [list(q), list(root)]}


def gen_act(rng, max_word: int, named: bool):
    n, exps = _random_char(rng)
    if named:
        name = rng.choice(list(oracles.GENERATORS))
        source = ["--gen", name]
        m = oracles.GENERATORS[name]
    else:
        m = random_member(rng, rng.randint(1, max_word))
        source = ["--matrix", _matrix_text(m)]
    if n == 2 and rng.random() < 0.5:
        char = oracles.LABEL_OF[exps]
    else:
        char = _exps_text(exps)
    argv = ["act", *source, "--char", char] + (["--n", "4"] if n == 4 else [])
    expected = oracles.act(oracles.monodromy(m), exps, n)
    return argv, {"act": [n, list(exps), list(expected)]}


def gen_chern(rng):
    if rng.random() < 0.5:
        rank, a, c2 = rng.randint(1, 4), rng.randint(-5, 5), rng.randint(-9, 9)
        return ["chern", "--bundle", f"{rank},{a},{c2}"], \
            {"chern": ["bundle", oracles.chi_abelian(rank, a, c2)]}
    a, b = rng.randint(-5, 5), rng.randint(-6, 6)
    return ["chern", "--blowup", f"{a},{b}"], {"chern": ["blowup", *oracles.chi_blowup(a, b)]}


def gen_membership(rng, max_word: int):
    m = random_member(rng, rng.randint(1, max_word))
    kind = rng.choice((None, "pattern", "form"))
    if kind is not None:
        m = corrupt(rng, m, kind)
    return ["membership", "--matrix", _matrix_text(m)], {"membership": kind}


def gen_malformed(rng, forest_dir: str, files: dict):
    """An input the CLI must reject with exit 2 and no traceback."""
    choice = rng.randrange(8)
    if choice == 0:
        argv = ["membership", "--matrix", ",".join(["1"] * 15)]
    elif choice == 1:
        argv = ["membership", "--matrix", "1/0" + ",0" * 15]
    elif choice == 2:
        argv = ["act", "--gen", f"b({rng.randint(2, 9)},0,0)", "--char", "psi1"]
    elif choice == 3:
        argv = ["act", "--gen", "J", "--char", f"psi{rng.randint(13, 99)}"]
    elif choice == 4:
        q = rng.choice(sorted(oracles.IMAGE - {(0, 0, 0, 0)}))
        argv = ["classify", "--Q", _exps_text(q), "--root", "0,0,0,0"]
    elif choice == 5:
        argv = ["chern", "--bundle", f"0,{rng.randint(0, 3)},1"]
    elif choice == 6:
        argv = ["orbits", "--set", rng.choice(("characters3", "psi13", "pairs24"))]
    else:
        name = f"bad{len(files)}.json"
        files[name] = {"L2": 4, "nodes": [{"id": "p", "d": rng.choice((1, 3, 5))}]}
        argv = ["invariants", "--forest", f"{forest_dir}/{name}"]
    return argv, {"exit": 2}


# -- forests ----------------------------------------------------------------------


def bushy_forest(rng, n: int) -> dict:
    """Depth <= 2: n/10 roots, three children per root, the rest grandchildren.

    Multiplicities and parents follow the node's rank, so forests of one
    size cost the same; the seed picks the ids, the node order and L2.
    """
    ids = rng.sample(range(10 * n), n)
    roots = max(1, n // 10)
    mids = roots * 3
    nodes = []
    for k, i in enumerate(ids):
        if k < roots:
            nodes.append({"id": f"r{i}", "d": (2, 4, 6)[k % 3]})
        elif k < roots + mids:
            nodes.append({"id": f"m{i}", "d": (2, 4)[k % 2],
                          "parent": nodes[k % roots]["id"]})
        else:
            nodes.append({"id": f"l{i}", "d": 2, "parent": nodes[roots + k % mids]["id"]})
    rng.shuffle(nodes)
    return {"L2": 2 * rng.randint(n, 3 * n), "nodes": nodes}


def chain_forest(rng, n: int) -> dict:
    """One chain of n infinitely-near points; a tenth of them have d = 4."""
    ids = rng.sample(range(10 * n), n)
    heavy = set(rng.sample(range(n), n // 10))
    nodes = []
    for k, i in enumerate(ids):
        node = {"id": f"c{i}", "d": 4 if k in heavy else 2}
        if k:
            node["parent"] = nodes[-1]["id"]
        nodes.append(node)
    rng.shuffle(nodes)
    return {"L2": 2 * rng.randint(n, 3 * n), "nodes": nodes}


def small_forest(rng) -> dict:
    if rng.random() < 0.5:
        return bushy_forest(rng, rng.randint(3, 12))
    return chain_forest(rng, rng.randint(3, 8))


# -- cycles -------------------------------------------------------------------------


def _cli_cold_cycle(rng, forest_dir, files):
    ops = [_fixed_op(cmd, rng.choice(FORMATS)) for cmd in GOLDEN]
    for gen in (gen_classify, gen_classify, gen_chern):
        ops.append(_cli_op(rng, *gen(rng)))
    for named in (True, False):
        ops.append(_cli_op(rng, *gen_act(rng, 8, named)))
        ops.append(_cli_op(rng, *gen_membership(rng, 8)))
    name = f"f{len(files)}.json"
    files[name] = small_forest(rng)
    ops.append(_cli_op(rng, ["invariants", "--forest", f"{forest_dir}/{name}"],
                       {"forest": name}))
    for _ in range(2):
        argv, check = gen_malformed(rng, forest_dir, files)
        ops.append({"argv": argv, "check": check})
    rng.shuffle(ops)
    return ops


# 25 ops: the four closures are the most expensive and fill the top sixth of
# a cycle, so p90 falls inside them; p50 falls among the ~12 ms ops
# (characters2, psi12 and act with a named generator).
_ORBIT_WARM_FIXED = (
    [("orbits", "--set", "psi12", "--closure")] * 4
    + [("orbits", "--set", "pairs48")] * 3
    + [("orbits", "--set", "characters2")] * 3
    + [("orbits", "--set", "psi12")]
    + [("moduli",)] * 3
    + [("ledger",)]
)


def _orbit_warm_cycle(rng):
    ops = [_fixed_op(cmd, rng.choice(FORMATS)) for cmd in _ORBIT_WARM_FIXED]
    for named in (True, False) * 3:
        ops.append(_cli_op(rng, *gen_act(rng, 16, named)))
    for gen in (gen_classify, gen_classify, gen_chern, gen_chern):
        ops.append(_cli_op(rng, *gen(rng)))
    rng.shuffle(ops)
    return ops


# A certified member costs about twice a rejected matrix.  With 8 members
# and 24 corrupted matrices per cycle, p50 falls inside the corrupted class
# and p90 inside the member class, rather than on the edge between them.
_MEMBER_LENGTHS = (2, 4, 6, 8, 10, 12, 14, 16)
_CORRUPTED = [("pattern" if k % 2 else "form", 1 + k % 16) for k in range(24)]


def _membership_cycle(rng):
    ops = []
    for kind, length in [(None, n) for n in _MEMBER_LENGTHS] + _CORRUPTED:
        m = random_member(rng, length)
        if kind is not None:
            m = corrupt(rng, m, kind)
        n, exps = _random_char(rng)
        ops.append({"matrix": _matrix_text(m), "char": _exps_text(exps), "n": n,
                    "check": {"membership": kind}})
    rng.shuffle(ops)
    return ops


# Seven chains and 18 bushy forests: 25 ops.  By cost, 11 ops lie below the
# three bushy n = 200 forests and 11 above them, so the median falls in the
# middle of that block; 21 lie below the three n = 200 chains, so the 90th
# percentile falls in the middle of theirs.  Chains stop at 250 nodes so that
# a run holds enough cycles.
_CHAIN_SIZES = (50, 100, 150, 200, 200, 200, 250)
_BUSHY_SIZES = (50, 50, 50, 50, 100, 100, 100, 150, 150, 150, 200, 200, 200,
                250, 250, 250, 300, 300)


def _forest_cycle(rng):
    forests = [chain_forest(rng, n) for n in _CHAIN_SIZES]
    forests += [bushy_forest(rng, n) for n in _BUSHY_SIZES]
    rng.shuffle(forests)
    return [{"forest": f} for f in forests]


def setup_op(workload: str, seed: int) -> dict:
    """The op a fresh process runs once to measure set-up time (fixed class)."""
    rng = random.Random(f"{workload}:{seed}:setup")
    if workload in ("cli_cold", "orbit_warm"):
        return _fixed_op(("orbits", "--set", "characters2"), "json")
    if workload == "membership_batch":
        return _membership_cycle(rng)[0]
    return {"forest": bushy_forest(rng, 100)}


def cycles(workload: str, seed: int, forest_dir: str, stream: str = "timed"):
    """Endless cycles of one workload: yields (ops, forest files by name).

    The stream name keeps the inputs of a traced phase apart from the timed
    ones.  A cli_cold cycle names its forest files under forest_dir; the
    caller writes them before running the cycle.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}:{stream}")
    while True:
        files: dict = {}
        if workload == "cli_cold":
            ops = _cli_cold_cycle(rng, forest_dir, files)
        elif workload == "orbit_warm":
            ops = _orbit_warm_cycle(rng)
        elif workload == "membership_batch":
            ops = _membership_cycle(rng)
        else:
            ops = _forest_cycle(rng)
        yield ops, files
