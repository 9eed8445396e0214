"""Tests of the benchmark's own logic: percentiles, oracles, verdicts, spans.

    python3 -m pytest bench/tests
"""

import json
import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction

import pytest

import gate
import oracles
import run
import stats
import tracing
import workloads
from common import BENCH, ROOT, child_env

# -- percentile rule -------------------------------------------------------------------


def test_percentile_matches_statistics_quantiles():
    rng = random.Random(3)
    values = [rng.random() for _ in range(500)]
    assert stats.percentile(values, 90) == pytest.approx(statistics.quantiles(values, n=10)[8])
    assert stats.percentile(values, 50) == statistics.median(values)


@pytest.mark.parametrize("count, expected", [(50, None), (100, 90.0), (250, 95.0),
                                             (1000, 99.0), (20000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    values = list(range(1, count + 1))
    assert stats.tail_percentile(values) == expected
    if expected is not None:
        assert stats.above(values, stats.percentile(values, expected)) >= 10


# -- oracles -----------------------------------------------------------------------


def test_polarization_image_is_the_chi_block():
    assert oracles.IMAGE == {oracles.LABELS[f"chi{i}"] for i in range(4)}


@pytest.mark.parametrize("q, root, expected", [
    ((0, 1, 0, 0), (0, 1, 0, 0), "invalid"),
    ((0, 0, 1, 0), (0, 0, 1, 0), "II"),
    ((0, 0, 0, 0), (0, 0, 0, 0), "pg3"),
    ((0, 0, 0, 0), (0, 2, 0, 0), "Ia"),
    ((0, 0, 0, 0), (2, 0, 0, 0), "Ib"),
])
def test_classify_five_cases(q, root, expected):
    assert oracles.classify(q, root) == expected


def test_forest_formulas():
    single = oracles.forest_expected({"L2": 4, "nodes": [{"id": "p", "d": 4}]})
    assert (single["chi"], single["K2"]) == (1, 6)
    flat = oracles.forest_expected({"L2": 4, "nodes": [{"id": "a", "d": 2}, {"id": "b", "d": 2}]})
    assert (flat["chi"], flat["K2"], flat["negligible"]) == (2, 8, ["a", "b"])
    pair = oracles.forest_expected({"L2": 4, "nodes": [{"id": "x", "d": 2},
                                                       {"id": "y", "d": 4, "parent": "x"}]})
    assert pair["pairs"] == [["x", "y"]]
    assert pair["negligible"] == []


def test_generated_members_and_corruptions():
    rng = random.Random(7)
    for length in range(1, 17):
        m = workloads.random_member(rng, length)
        assert oracles.preserves_standard_form(m)
        assert oracles.first_pattern_violation(m) is None
        assert all(x.denominator == 1 for row in oracles.monodromy(m) for x in row)
        bad = workloads.corrupt(rng, m, "pattern")
        assert oracles.first_pattern_violation(bad) is not None
        form = workloads.corrupt(rng, m, "form")
        assert oracles.first_pattern_violation(form) is None
        assert not oracles.preserves_standard_form(form)


def test_action_of_J_swaps_psi1_and_psi3():
    n = oracles.monodromy(oracles.GEN_J)
    assert oracles.LABEL_OF[oracles.act(n, oracles.LABELS["psi1"], 2)] == "psi3"


def test_chern_oracles_match_the_ledger_values():
    assert oracles.chi_abelian(2, 1, 1) == 1
    assert oracles.chi_blowup(2, -4) == (-2, 3)
    assert oracles.chi_blowup(-1, 2) == (1, 0)


# -- gate -----------------------------------------------------------------------------


def test_gate_flags_wrong_type_and_tracebacks():
    op = {"argv": ["classify", "--Q", "chi0", "--root", "0,2,0,0"],
          "check": {"classify": [[0, 0, 0, 0], [0, 2, 0, 0]], "format": "json"}}
    report = {"moduli": {"dimension": 4, "cover_degree": 12}, "pencil_genus": 5}
    good = json.dumps({"type": "Ia", "report": report})
    assert gate.check_cli(op, [0, good, False], {}, {}) is None
    assert gate.check_cli(op, [0, json.dumps({"type": "Ib", "report": report}), False],
                          {}, {}) is not None
    malformed = {"argv": ["membership", "--d", "0"], "check": {"exit": 2}}
    assert gate.check_cli(malformed, [2, "", False], {}, {}) is None
    assert gate.check_cli(malformed, [1, "", True], {}, {}).startswith("traceback")
    crashed = {"error": "AssertionError: action broke the square relation"}
    assert gate.check_op("orbit_warm", op, crashed, {}, {}).startswith("raised")


def test_gate_membership_record():
    m = workloads.random_member(random.Random(1), 5)
    text = ",".join(str(Fraction(x)) for row in m for x in row)
    want = oracles.membership_expected(m, None, (1, 0, 1, 0), 4)
    op = {"matrix": text, "char": "1,0,1,0", "n": 4, "check": {"membership": None}}
    out = {"flags": [True, True, True], "violation": None,
           "monodromy": want["monodromy"], "act": want["act"]}
    assert gate.check_membership(op, out) is None
    wrong = [(e + 1) % 4 for e in want["act"]]
    assert gate.check_membership(op, dict(out, act=wrong)) is not None


def test_gate_forest_record():
    forest = {"L2": 8, "nodes": [{"id": "x", "d": 2}, {"id": "y", "d": 4, "parent": "x"}]}
    want = oracles.forest_expected(forest)
    out = [want["chi"], want["K2"], want["negligible"], want["pairs"], True]
    assert gate.check_forest({"forest": forest}, out) is None
    assert gate.check_forest({"forest": forest}, [want["chi"] + 1] + out[1:]) is not None
    assert gate.check_forest({"forest": forest}, out[:4] + [False]) is not None


# -- compare verdicts ----------------------------------------------------------------


def test_verdict_improved_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v - 1.0 for v in parent]
    assert stats.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    slightly = [v - 0.01 for v in parent]  # wins every pair, gap inside the IQR
    assert stats.verdict(parent, slightly, "lower", 0.1)[0] == "no worse"
    assert stats.verdict(parent, [v * 1.5 for v in parent], "lower", 0.1)[0] == "worse"
    assert stats.verdict(parent, [v - 2.0 for v in parent], "higher", 0.1)[0] == "worse"
    assert stats.verdict(parent, faster[:5], "lower", 0.1)[0] == "no worse"


def test_verdict_unresolved_when_parent_spread_exceeds_bound():
    parent = [5.0, 10.0, 15.0, 7.0, 12.0, 9.0, 14.0, 6.0, 11.0, 8.0]
    change = [v * 1.02 for v in parent]
    assert stats.verdict(parent, change, "lower", 0.1)[0] == "unresolved"


# -- spans --------------------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 8.0]
    parent = [-1, 0, 0, 2]
    assert tracing.self_times(start, end, parent) == [3.0, 3.0, 2.0, 2.0]
    spans = {"names": ["op", "a", "b"], "name": [0, 1, 2, 1], "start": start, "end": end,
             "parent": parent}
    totals = tracing.layer_totals(spans)
    assert totals["a"] == {"calls": 2, "total": 5.0, "self": 5.0}
    assert sum(r["self"] for r in totals.values()) == end[0] - start[0]
    assert tracing.child_count(spans, "a", {"b"}) == 1


def test_wrapper_records_nesting():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [tracer.names[i] for i in tracer.name] == ["outer", "inner"]
    assert list(tracer.parent) == [-1, 0]


def test_install_wraps_every_namespace():
    code = ("import tracing, paramod.cli, paramod.orbits as o, paramod.paramodular as p\n"
            "t = tracing.Tracer(); tracing.install(t)\n"
            "assert o.act is p.act and paramod.cli.special_generators is p.special_generators\n"
            "assert o.act.__wrapped__ is not None\n"
            "o.permutation_of(p.special_generators()[5][1],"
            " o.psi_set(paramod.lattice.character_table(paramod.lattice.make_lattice(2))))\n"
            "names = {t.names[i] for i in t.name}\n"
            "assert {'orbits.permutation_of', 'paramodular.act',"
            " 'paramodular.special_generators'} <= names, names\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# -- workloads and the benchmark definition ------------------------------------------


def _first_cycles(workload, seed, stream="timed", count=2):
    it = workloads.cycles(workload, seed, "d", stream)
    return [next(it) for _ in range(count)]


def test_same_seed_same_inputs_and_fixed_mix():
    for workload in workloads.WORKLOADS:
        a = _first_cycles(workload, 5)
        assert a == _first_cycles(workload, 5)
        assert a != _first_cycles(workload, 5, "trace")
        assert a[0] != a[1]
        assert len(a[0][0]) == len(a[1][0])
        assert workloads.setup_op(workload, 5) == workloads.setup_op(workload, 5)
    (c0, _), (c1, _) = _first_cycles("membership_batch", 6)
    assert sorted(str(op["check"]) for op in c0) == sorted(str(op["check"]) for op in c1)


def test_fresh_processes_load_no_harness_modules():
    code = (f"import sys; before = set(sys.modules); sys.path.insert(0, {BENCH!r})\n"
            "import fresh\n"
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert loaded <= {"fresh", "ops", "json", "json.decoder", "json.encoder", "json.scanner",
                      "_json", "__future__"}, loaded


def test_benchmark_json_lists_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
