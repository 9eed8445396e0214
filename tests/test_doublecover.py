import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import forest_reference

from paramod.doublecover import (
    CoverInvariants,
    ForestNode,
    SingularityForest,
    detect_33_pairs,
    forest,
    forest_from_json,
    invariants,
    is_negligible,
)


def test_lone_double_point_negligible():
    f = forest([("x", 2)])
    assert is_negligible(f, "x")


def test_triple_point_encoding_negligible():
    # ordinary triple point: d=2 with an infinitely-near d=2
    f = forest([("x", 2), ("y", 2, "x")])
    assert is_negligible(f, "x")
    assert is_negligible(f, "y")


def test_quadruple_point_not_negligible():
    f = forest([("x", 4)])
    assert not is_negligible(f, "x")


def test_double_point_with_heavy_neighbor_not_negligible():
    f = forest([("x", 2), ("y", 4, "x")])
    assert not is_negligible(f, "x")


def test_is_negligible_unknown_id():
    with pytest.raises(KeyError):
        is_negligible(forest([("x", 2)]), "zz")


def test_detect_33_pair():
    f = forest([("x", 2), ("y", 4, "x")])
    assert detect_33_pairs(f) == [("x", "y")]


def test_detect_55_pair():
    f = forest([("x", 4), ("y", 6, "x")])
    assert detect_33_pairs(f) == [("x", "y")]


def test_detect_pairs_flat_forest_empty():
    f = forest([("a", 2), ("b", 2), ("c", 2)])
    assert detect_33_pairs(f) == []


def test_negligible_and_33_mutually_exclusive():
    f = forest([("x", 2), ("y", 4, "x"), ("z", 2)])
    for parent, child in detect_33_pairs(f):
        assert not is_negligible(f, parent)
        assert not is_negligible(f, child)


def test_invariants_quadruple_point():
    inv = invariants(4, forest([("p", 4)]))
    assert inv.chi == 1
    assert inv.K2_resolved == 6
    assert not inv.has_33_pair
    assert inv.negligible_ids == ()


def test_invariants_all_double_points():
    inv = invariants(4, forest([("a", 2), ("b", 2)]))
    assert inv.chi == 2
    assert inv.K2_resolved == 8
    assert "negligible" in inv.minimality_note
    assert "K^2 = 4" in inv.minimality_note


def test_invariants_33_pair_minimal_model_note():
    inv = invariants(4, forest([("x", 2), ("y", 4, "x")]))
    assert inv.has_33_pair
    assert inv.chi == 1
    assert inv.K2_resolved == 6
    assert "K^2 = 7" in inv.minimality_note


def test_invariants_note_with_two_pairs_covers_one():
    # two disjoint (2, 4) pairs: one contraction gives 4 + 1, not the minimal model
    inv = invariants(4, forest([("a", 2), ("b", 4, "a"), ("c", 2), ("e", 4, "c")]))
    assert inv.K2_resolved == 4
    assert inv.minimality_note == (
        "resolution contains a (-1)-curve from the consecutive-triple-point pair(s) "
        "[('a', 'b'), ('c', 'e')]; contracting one pair's (-1)-curve gives K^2 = 5; "
        "this figure covers one pair only")


def test_invariants_node_permutation_invariant():
    a = invariants(4, forest([("p", 4), ("n", 2)]))
    b = invariants(4, forest([("n", 2), ("p", 4)]))
    assert (a.chi, a.K2_resolved) == (b.chi, b.K2_resolved)


def test_adding_negligible_node_is_noop():
    base = invariants(4, forest([("p", 4)]))
    more = invariants(4, forest([("p", 4), ("n", 2)]))
    assert (base.chi, base.K2_resolved) == (more.chi, more.K2_resolved)
    assert more.negligible_ids == ("n",)


@pytest.mark.parametrize("node_tuples,L2", [
    ([("p", 4)], 4),
    ([("p", 4), ("n", 2)], 4),
    ([("a", 2)], 6),
    ([("x", 2), ("y", 4, "x")], 4),
    ([("x", 4), ("y", 6, "x")], 8),
    ([], 2),
])
def test_formula_replay(node_tuples, L2):
    f = forest(node_tuples)
    inv = invariants(L2, f)
    ms = [n.d // 2 for n in f.nodes]
    assert 2 * inv.chi + sum(m * (m - 1) for m in ms) == L2
    assert inv.K2_resolved == 2 * L2 - 2 * sum((m - 1) ** 2 for m in ms)


def test_invariants_rejects_bad_L2():
    for l2 in (0, 3, 9):
        with pytest.raises(ValueError, match=f"L2 must be even and positive, got {l2}"):
            invariants(l2, forest([]))


def test_empty_forest_has_depth_0():
    assert SingularityForest(()).max_depth() == 0


def test_forest_rejects_odd_multiplicity():
    with pytest.raises(ValueError, match="even"):
        forest([("x", 3)])
    with pytest.raises(ValueError, match="even"):
        forest([("x", 0)])


def test_forest_rejects_unknown_parent():
    with pytest.raises(ValueError, match="unknown parent"):
        forest([("x", 2, "zz")])


def test_forest_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        forest([("x", 2), ("x", 4)])


def test_deep_chain_flagged():
    f = forest([("x", 2), ("y", 2, "x"), ("z", 2, "y")])
    inv = invariants(4, f)
    assert "deeper than one level" in inv.minimality_note


# The reduced branch configurations with a quadruple point: cases (i) and
# (iii) are one ordinary quadruple point, case (ii) adds an ordinary node.
@pytest.mark.parametrize("nodes, negligible", [
    ([("p", 4)], ()),
    ([("p", 4), ("n", 2)], ("n",)),
], ids=["p4", "p4-n2"])
def test_branch_scenarios(nodes, negligible):
    inv = invariants(4, forest(nodes))
    assert (inv.chi, inv.K2_resolved, inv.negligible_ids) == (1, 6, negligible)


def test_forest_from_json():
    payload = {"L2": 4, "nodes": [
        {"id": "p", "d": 4, "parent": None},
        {"id": "n", "d": 2},
    ]}
    l2, f = forest_from_json(payload)
    assert l2 == 4
    assert invariants(l2, f).K2_resolved == 6
    with pytest.raises(ValueError):
        forest_from_json({"nodes": []})


def _nodes(*nodes):
    return {"L2": 4, "nodes": list(nodes)}


@pytest.mark.parametrize("payload, message", [
    ([4], "forest input needs 'L2' and 'nodes' keys"),
    ({"nodes": []}, "forest input needs 'L2' and 'nodes' keys"),
    ({"L2": 4}, "forest input needs 'L2' and 'nodes' keys"),
    ({"L2": 4, "nodes": {}}, "'nodes' must be a list of objects"),
    (_nodes({"id": "a", "d": 2}, "p"), "'nodes' must be a list of objects"),
    (_nodes({"id": None, "d": 4}), "node id must be a JSON str or int, got None"),
    (_nodes({"d": 4}), "node id must be a JSON str or int, got None"),
    (_nodes({"id": 1.5, "d": 4}), "node id must be a JSON str or int, got 1.5"),
    (_nodes({"id": True, "d": 4}), "node id must be a JSON str or int, got True"),
    (_nodes({"id": ["p"], "d": 4}), "node id must be a JSON str or int, got ['p']"),
    (_nodes({"id": "p", "d": 4, "parent": 1.5}),
     "node p: parent must be a JSON str or int, got 1.5"),
    (_nodes({"id": "p", "d": 4, "parent": ["q"]}),
     "node p: parent must be a JSON str or int, got ['q']"),
    (_nodes({"id": "p", "d": 4, "parent": True}),
     "node p: parent must be a JSON str or int, got True"),
    (_nodes({"id": "p", "d": None}), "node p: d must be a JSON int, got None"),
    (_nodes({"id": "p"}), "node p: d must be a JSON int, got None"),
    (_nodes({"id": "p", "d": "4"}), "node p: d must be a JSON int, got '4'"),
    (_nodes({"id": "p", "d": 4.5}), "node p: d must be a JSON int, got 4.5"),
    (_nodes({"id": "p", "d": True}), "node p: d must be a JSON int, got True"),
    (_nodes({"id": 7, "d": "4"}), "node 7: d must be a JSON int, got '4'"),
    ({"L2": "4", "nodes": []}, "L2 must be a JSON int, got '4'"),
    ({"L2": None, "nodes": []}, "L2 must be a JSON int, got None"),
    ({"L2": True, "nodes": []}, "L2 must be a JSON int, got True"),
    # one node with three bad fields: id, then parent, then d
    (_nodes({"id": 1.5, "d": "x", "parent": 2.5}),
     "node id must be a JSON str or int, got 1.5"),
    (_nodes({"id": "p", "d": "x", "parent": 2.5}),
     "node p: parent must be a JSON str or int, got 2.5"),
    # every node is read before L2
    ({"L2": "x", "nodes": [{"id": "p", "d": "x"}]}, "node p: d must be a JSON int, got 'x'"),
    # int 7 and str "7" name the same node
    (_nodes({"id": 7, "d": 2}, {"id": "7", "d": 2}), "duplicate node ids"),
    # two faults: every d and parent is checked before the cycle walk, node by node
    (_nodes({"id": "a", "d": 2, "parent": "c"}, {"id": "b", "d": 2},
            {"id": "c", "d": 3, "parent": "a"}),
     "node c: multiplicity must be even and >= 2, got 3"),
    (_nodes({"id": "a", "d": 2, "parent": "zz"}, {"id": "b", "d": 3}),
     "node a: unknown parent zz"),
    (_nodes({"id": "b", "d": 3}, {"id": "a", "d": 2, "parent": "zz"}),
     "node b: multiplicity must be even and >= 2, got 3"),
])
def test_forest_from_json_error_messages(payload, message):
    with pytest.raises(ValueError) as err:
        forest_from_json(payload)
    assert str(err.value) == message


def test_forest_from_json_int_ids_become_strings():
    l2, f = forest_from_json(_nodes({"id": "c", "d": 2, "parent": 7}, {"id": 7, "d": 4}))
    assert f.nodes == (ForestNode("c", 2, "7"), ForestNode("7", 4, None))
    assert f.node("7") == ForestNode("7", 4, None)
    assert f.max_depth() == 1


def test_cover_invariants_json():
    inv = invariants(4, forest([("p", 4)]))
    assert isinstance(inv, CoverInvariants)
    assert inv._asdict()["chi"] == 1


def test_parent_cycle_rejected():
    with pytest.raises(ValueError, match="cycle"):
        SingularityForest((ForestNode("a", 2, "b"), ForestNode("b", 2, "a")))


# -- brute-force references -------------------------------------------------------


def _ancestors(parent: dict, node_id: str) -> list[str]:
    out = []
    cur = parent[node_id]
    while cur is not None:
        out.append(cur)
        cur = parent[cur]
    return out


def _reference(l2: int, nodes: list[tuple]) -> dict:
    """chi, K^2, negligible ids, pairs and depth straight from the definitions."""
    d = {i: di for i, di, _ in nodes}
    parent = {i: p for i, _, p in nodes}
    ancestors = {i: _ancestors(parent, i) for i in d}
    ms = [di // 2 for di in d.values()]
    return {
        "chi": (l2 - sum(m * (m - 1) for m in ms)) // 2,
        "K2": 2 * l2 - 2 * sum((m - 1) ** 2 for m in ms),
        # d = 2 at the point and d <= 2 at every point infinitely near to it
        "negligible": tuple(sorted(
            i for i in d
            if d[i] == 2 and all(d[j] <= 2 for j in d if i in ancestors[j]))),
        # (parent, child) with multiplicities (2k, 2k+2), k >= 1
        "pairs": sorted((p, i) for i, p in parent.items()
                        if p is not None and d[p] >= 2 and d[i] == d[p] + 2),
        "max_depth": max((len(a) for a in ancestors.values()), default=0),
    }


def _first_cycle_node(nodes: list[tuple]):
    """The node a full walk up from each node, in order, names first; None if acyclic."""
    parent = {i: p for i, _, p in nodes}
    for i, _, _ in nodes:
        seen = {i}
        cur = parent[i]
        while cur is not None:
            if cur in seen:
                return cur
            seen.add(cur)
            cur = parent[cur]
    return None


@st.composite
def acyclic_forests(draw, max_nodes=12):
    """(id, d, parent) tuples in shuffled order; ids sort unlike their ranks."""
    n = draw(st.integers(0, max_nodes))
    nodes = []
    for k in range(n):
        parent = draw(st.none() | st.integers(0, k - 1)) if k else None
        nodes.append((str(k), draw(st.sampled_from((2, 4, 6, 8))),
                      None if parent is None else str(parent)))
    return [nodes[k] for k in draw(st.permutations(range(n)))]


@st.composite
def parent_maps(draw, max_nodes=12):
    """(id, 2, parent) tuples whose parents are any ids, self included."""
    n = draw(st.integers(1, max_nodes))
    return [(str(k), 2, draw(st.none() | st.integers(0, n - 1).map(str)))
            for k in range(n)]


@settings(max_examples=200, deadline=None)
@given(acyclic_forests(), st.integers(1, 40))
def test_invariants_match_brute_force(nodes, half_l2):
    l2 = 2 * half_l2
    f = forest(nodes)
    ref = _reference(l2, nodes)
    inv = invariants(l2, f)
    assert (inv.chi, inv.K2_resolved) == (ref["chi"], ref["K2"])
    assert inv.negligible_ids == ref["negligible"]
    assert tuple(sorted(i for i, _, _ in nodes if is_negligible(f, i))) == ref["negligible"]
    assert detect_33_pairs(f) == ref["pairs"]
    assert inv.has_33_pair == bool(ref["pairs"])
    assert ("deeper than one level" in inv.minimality_note) == (ref["max_depth"] > 1)


@settings(max_examples=200, deadline=None)
@given(parent_maps())
def test_parent_cycle_names_first_repeated_node(nodes):
    expected = _first_cycle_node(nodes)
    assume(expected is not None)
    with pytest.raises(ValueError) as err:
        SingularityForest(tuple(ForestNode(*t) for t in nodes))
    assert str(err.value) == f"parent cycle through {expected}"


def test_parent_cycle_below_a_tail_names_the_entry():
    # x -> a -> b -> a: the walk from x first repeats at a
    nodes = [("x", 2, "a"), ("b", 2, "a"), ("a", 2, "b")]
    with pytest.raises(ValueError, match="^parent cycle through a$"):
        forest(nodes)


# -- fault order: several faults at once, against the reference checks -------------


def _first_error(build) -> str | None:
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def faulty_nodes(draw, max_nodes=8):
    """(id, d, parent) tuples with any mix of duplicate ids, odd or small d,
    unknown parents and parent cycles, in shuffled order."""
    n = draw(st.integers(1, max_nodes))
    nodes = []
    for k in range(n):
        parent = draw(st.none() | st.integers(0, k - 1)) if k else None
        nodes.append([str(k), draw(st.sampled_from((2, 4, 6))),
                      None if parent is None else str(parent)])
    index = st.integers(0, n - 1)
    for fault in draw(st.lists(st.sampled_from(("duplicate", "bad_d", "unknown_parent",
                                                "cycle")), max_size=5)):
        node = nodes[draw(index)]
        if fault == "duplicate":
            node[0] = nodes[draw(index)][0]
        elif fault == "bad_d":
            node[1] = draw(st.sampled_from((-2, 0, 1, 3, 5)))
        elif fault == "unknown_parent":
            node[2] = "zz"
        else:  # node and other name each other as parent (node itself when equal)
            other = nodes[draw(index)]
            node[2], other[2] = other[0], node[0]
    return [tuple(nodes[k]) for k in draw(st.permutations(range(n)))]


@st.composite
def faulty_payloads(draw):
    """Forest JSON over faulty_nodes, with ids, parents, d or L2 of the wrong
    JSON type, and int ids that name the same node as a str id."""
    nodes = []
    for node_id, d, parent in draw(faulty_nodes()):
        node = {"id": node_id, "d": d}
        if parent is not None:
            node["parent"] = parent
        nodes.append(node)
    l2 = 8
    for fault in draw(st.lists(st.sampled_from(("int_id", "int_parent", "id_type",
                                                "parent_type", "d_type", "l2_type")),
                               max_size=4)):
        node = nodes[draw(st.integers(0, len(nodes) - 1))]
        if fault == "int_id" and str(node.get("id")).isdigit():
            node["id"] = int(node["id"])
        elif fault == "int_parent" and str(node.get("parent")).isdigit():
            node["parent"] = int(node["parent"])
        elif fault == "id_type":
            node["id"] = draw(st.sampled_from((None, 1.5, True, ["p"])))
        elif fault == "parent_type":
            node["parent"] = draw(st.sampled_from((1.5, False, ["q"])))
        elif fault == "d_type":
            node["d"] = draw(st.sampled_from((None, "4", 4.5, True)))
        elif fault == "l2_type":
            l2 = draw(st.sampled_from(("4", None, True)))
    return {"L2": l2, "nodes": nodes}


@settings(max_examples=300, deadline=None)
@given(faulty_nodes())
def test_forest_fault_order_matches_reference(nodes):
    expected = _first_error(lambda: forest_reference.check_nodes(nodes))
    assert _first_error(lambda: forest(nodes)) == expected


@settings(max_examples=300, deadline=None)
@given(faulty_payloads())
def test_forest_from_json_fault_order_matches_reference(payload):
    expected = _first_error(lambda: forest_reference.check_payload(payload))
    assert _first_error(lambda: forest_from_json(payload)) == expected


def test_stored_results_are_not_shared():
    f = forest([("p", 4), ("q", 6, "p"), ("r", 2)])
    inv = invariants(8, f)
    first, second = detect_33_pairs(f), detect_33_pairs(f)
    assert first == second == [("p", "q")]
    assert first is not second
    first.append(("r", "p"))
    second.clear()
    assert detect_33_pairs(f) == [("p", "q")]
    assert invariants(8, f) == inv
    assert inv.has_33_pair and "pair(s) [('p', 'q')]" in inv.minimality_note


def test_node_unknown_id_message():
    with pytest.raises(KeyError, match="unknown node id 'zz'"):
        forest([("x", 2)]).node("zz")


# -- deep input: 5000 nodes, no recursion, exact results --------------------------


def _shuffled_payload(l2: int, nodes: list[dict], seed: int) -> dict:
    random.Random(seed).shuffle(nodes)
    return {"L2": l2, "nodes": nodes}


def test_deep_chain_5000():
    # c0 <- c1 <- ... <- c4999; d = 4 where k % 7 == 3, else 2
    n = 5000
    heavy = [k for k in range(n) if k % 7 == 3]
    nodes = [{"id": f"c{k}", "d": 4 if k % 7 == 3 else 2,
              "parent": f"c{k - 1}" if k else None} for k in range(n)]
    l2, f = forest_from_json(_shuffled_payload(10000, nodes, 5))
    inv = invariants(l2, f)
    assert len(heavy) == 714
    assert (inv.chi, inv.K2_resolved) == (4286, 18572)
    assert inv.negligible_ids == ("c4995", "c4996", "c4997", "c4998", "c4999")
    assert detect_33_pairs(f) == sorted((f"c{k - 1}", f"c{k}") for k in heavy)
    assert f.max_depth() == n - 1
    assert "deeper than one level" in inv.minimality_note


def test_bushy_forest_5000():
    # 500 roots (d = 4 at odd i), three children each, two grandchildren per child;
    # child 0 of an odd root has d = 6, child 1 of an even root has d = 4
    nodes = []
    for i in range(500):
        nodes.append({"id": f"r{i}", "d": 4 if i % 2 else 2})
        for j in range(3):
            d = 6 if (i % 2, j) == (1, 0) else 4 if (i % 2, j) == (0, 1) else 2
            nodes.append({"id": f"m{i}.{j}", "d": d, "parent": f"r{i}"})
            for k in range(2):
                nodes.append({"id": f"l{i}.{j}.{k}", "d": 2, "parent": f"m{i}.{j}"})
    heavy_child = {i: i % 2 == 0 for i in range(500)}  # True: child 1, False: child 0
    heavy = {f"r{i}" for i in range(500)} | {
        f"m{i}.{1 if heavy_child[i] else 0}" for i in range(500)}
    l2, f = forest_from_json(_shuffled_payload(10000, nodes, 6))
    inv = invariants(l2, f)
    assert len(f.nodes) == 5000
    assert (inv.chi, inv.K2_resolved) == (3750, 17000)
    assert inv.negligible_ids == tuple(sorted(n["id"] for n in nodes if n["id"] not in heavy))
    assert len(inv.negligible_ids) == 4000
    assert detect_33_pairs(f) == sorted(
        (f"r{i}", f"m{i}.{1 if heavy_child[i] else 0}") for i in range(500))
    assert f.max_depth() == 2


# -- package import ---------------------------------------------------------------


def test_importing_doublecover_loads_no_other_module():
    code = ("import sys, paramod.doublecover; "
            "print(*sorted(m for m in sys.modules if m.startswith('paramod')"
            " or m in ('dataclasses', 'inspect')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["paramod", "paramod.doublecover"]


def test_package_names_resolve_to_their_modules():
    import paramod
    from paramod import classifier, lattice, paramodular
    for name in paramod.__all__:
        owner = next(m for m in (lattice, paramodular, classifier) if hasattr(m, name))
        assert getattr(paramod, name) is getattr(owner, name)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        paramod.nope
