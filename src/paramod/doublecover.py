"""Canonical-resolution combinatorics for double covers of abelian surfaces.

A branch-curve singularity configuration is a forest of infinitely-near
points with even multiplicities d_i = 2*m_i.  Resolving the double cover
branched over a curve of class with self-intersection L2 gives

    chi = (L2 - sum m_i(m_i - 1)) / 2,
    K^2 = 2*L2 - 2 * sum (m_i - 1)^2,

and the forest shape decides which points are negligible and whether a
consecutive-triple-point pair forces a non-minimal resolution.

A forest is validated and indexed once, when it is built, in time linear in
its node count; lookups after that take constant time, so `invariants` costs
O(n log n) (the sort of the negligible ids) for n nodes of any depth.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from paramod.errors import ConsistencyError


class ForestNode(NamedTuple):
    id: str
    d: int
    parent: Optional[str] = None


class SingularityForest:
    """Infinitely-near branch points; parent means 'in the first neighborhood of'.

    Construction validates the forest and indexes it once: the id -> node
    map, the maximal depth and the negligible ids.
    """

    def __init__(self, nodes: tuple[ForestNode, ...]) -> None:
        self.nodes = nodes
        by_id = {n.id: n for n in self.nodes}
        if len(by_id) != len(self.nodes):
            raise ValueError("duplicate node ids")
        for n in self.nodes:
            if n.d < 2 or n.d % 2 != 0:
                raise ValueError(f"node {n.id}: multiplicity must be even and >= 2, got {n.d}")
            if n.parent is not None and n.parent not in by_id:
                raise ValueError(f"node {n.id}: unknown parent {n.parent}")
        # Walk up from each node, in order, to a root or a node of known depth,
        # so every node is walked over once.  A node of known depth leads to a
        # root, so the first walk that meets itself starts at the first node
        # whose full walk up would, and names the same repeated node.
        depths: dict[str, int] = {}
        for n in self.nodes:
            if n.id in depths:
                continue
            path = [n.id]
            on_path = {n.id}
            cur = n.parent
            while cur is not None and cur not in depths:
                if cur in on_path:
                    raise ValueError(f"parent cycle through {cur}")
                path.append(cur)
                on_path.add(cur)
                cur = by_id[cur].parent
            depth = 0 if cur is None else depths[cur] + 1
            for node_id in reversed(path):
                depths[node_id] = depth
                depth += 1
        # A node is heavy when it or a point infinitely near to it has d > 2:
        # mark upwards from each d > 2 node, stopping at a node already marked.
        heavy: set[str] = set()
        for n in self.nodes:
            if n.d == 2:
                continue
            cur = n.id
            while cur is not None and cur not in heavy:
                heavy.add(cur)
                cur = by_id[cur].parent
        self._by_id = by_id
        self._max_depth = max(depths.values(), default=0)
        self._negligible = frozenset(by_id.keys() - heavy)

    def node(self, node_id: str) -> ForestNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise KeyError(f"unknown node id {node_id!r}") from None

    def max_depth(self) -> int:
        return self._max_depth


def forest(node_tuples: list[tuple]) -> SingularityForest:
    """Build a forest from (id, d) or (id, d, parent) tuples."""
    return SingularityForest(tuple(ForestNode(*t) for t in node_tuples))


class CoverInvariants(NamedTuple):
    chi: int
    K2_resolved: int
    negligible_ids: tuple[str, ...]
    has_33_pair: bool
    minimality_note: str


def is_negligible(f: SingularityForest, node_id: str) -> bool:
    """d = 2 at the point and d <= 2 at every point infinitely near to it."""
    f.node(node_id)  # KeyError for an unknown id
    return node_id in f._negligible


def detect_33_pairs(f: SingularityForest) -> list[tuple[str, str]]:
    """All (parent, child) pairs with multiplicities (2d, 2d+2), d >= 1.

    The d = 1 instance is the triple-point-with-infinitely-near-triple-point
    configuration whose resolution carries a (-1)-curve.
    """
    out = []
    for n in f.nodes:
        if n.parent is None:
            continue
        p = f.node(n.parent)
        if p.d >= 2 and n.d == p.d + 2:
            out.append((p.id, n.id))
    out.sort()
    return out


def invariants(L2: int, f: SingularityForest) -> CoverInvariants:
    """Resolution invariants of the double cover branched over the configuration.

    Raw formula values are reported as-is.  The note field records the two
    situations where the raw numbers do not tell the whole story: a
    consecutive-triple-point pair (the resolution is non-minimal and the
    minimal model gains K^2 + 1), and an all-negligible forest (the
    correction terms vanish identically, so chi = L2/2 and K^2 = 2*L2; in
    the chi = 1 classification context that case is excluded because it
    would force L2 = 2 and K^2 = 4).
    """
    if L2 <= 0 or L2 % 2 != 0:
        raise ValueError(f"L2 must be even and positive, got {L2}")
    ms = [n.d // 2 for n in f.nodes]
    drop_chi = sum(m * (m - 1) for m in ms)
    if (L2 - drop_chi) % 2 != 0:
        raise ConsistencyError(f"parity failure: L2={L2}, sum m(m-1)={drop_chi}")
    chi = (L2 - drop_chi) // 2
    k2 = 2 * L2 - 2 * sum((m - 1) ** 2 for m in ms)

    negligible = tuple(sorted(f._negligible))
    pairs = detect_33_pairs(f)

    notes = []
    if pairs:
        notes.append(
            "resolution contains a (-1)-curve from the consecutive-triple-point "
            f"pair(s) {pairs}; the minimal model has K^2 = {k2 + 1}"
        )
    if f.nodes and len(negligible) == len(f.nodes):
        notes.append(
            "all singularities negligible: chi = L2/2 and K^2 = 2*L2 with no "
            "correction; excluded in the chi = 1 classification context "
            "(it would force L2 = 2, K^2 = 4)"
        )
    if f.max_depth() > 1:
        notes.append("chains of infinitely-near points deeper than one level are "
                     "beyond the classifier's case analysis")
    return CoverInvariants(chi, k2, negligible, bool(pairs), "; ".join(notes))


def branch_scenarios() -> list[dict]:
    """The three reduced branch configurations with a quadruple point.

    Each is mapped to its singularity forest and to invariants(4, .), which
    must come out chi = 1, K^2 = 6 for all three.
    """
    cases = [
        {
            "case": "(i)",
            "description": "irreducible curve, one ordinary quadruple point",
            "forest": forest([("p", 4)]),
            "surface_type_hint": "I",
        },
        {
            "case": "(ii)",
            "description": "irreducible curve, one ordinary quadruple point "
                           "plus one ordinary double point",
            "forest": forest([("p", 4), ("n", 2)]),
            "surface_type_hint": "I",
        },
        {
            "case": "(iii)",
            "description": "two irreducible halves, each with an ordinary double "
                           "point at p, meeting with intersection number 4 "
                           "(branch curve disconnected after resolution)",
            "forest": forest([("p", 4)]),
            "surface_type_hint": "II",
        },
    ]
    out = []
    for c in cases:
        inv = invariants(4, c["forest"])
        if (inv.chi, inv.K2_resolved) != (1, 6):
            raise ConsistencyError(
                f"branch case {c['case']} gives ({inv.chi}, {inv.K2_resolved}), want (1, 6)"
            )
        out.append({
            "case": c["case"],
            "description": c["description"],
            "nodes": [{"id": n.id, "d": n.d, "parent": n.parent} for n in c["forest"].nodes],
            "chi": inv.chi,
            "K2": inv.K2_resolved,
            "negligible_ids": list(inv.negligible_ids),
            "surface_type_hint": c["surface_type_hint"],
        })
    return out


def _json_field(value, types: tuple, what: str):
    if type(value) not in types:
        names = " or ".join(t.__name__ for t in types)
        raise ValueError(f"{what} must be a JSON {names}, got {value!r}")
    return value


def forest_from_json(payload: dict) -> tuple[int, SingularityForest]:
    """Parse {"L2": n, "nodes": [{"id", "d", "parent"}]} input.

    L2 and every d must be JSON integers, ids and parents strings or
    integers; anything else raises ValueError.
    """
    if not isinstance(payload, dict) or "L2" not in payload or "nodes" not in payload:
        raise ValueError("forest input needs 'L2' and 'nodes' keys")
    if not isinstance(payload["nodes"], list) or not all(
            isinstance(n, dict) for n in payload["nodes"]):
        raise ValueError("'nodes' must be a list of objects")
    nodes = []
    for n in payload["nodes"]:
        node_id = str(_json_field(n.get("id"), (str, int), "node id"))
        parent = n.get("parent")
        if parent is not None:
            parent = str(_json_field(parent, (str, int), f"node {node_id}: parent"))
        nodes.append(ForestNode(node_id, _json_field(n.get("d"), (int,), f"node {node_id}: d"),
                                parent))
    return _json_field(payload["L2"], (int,), "L2"), SingularityForest(tuple(nodes))
