"""Canonical-resolution combinatorics for double covers of abelian surfaces.

A branch-curve singularity configuration is a forest of infinitely-near
points with even multiplicities d_i = 2*m_i.  Resolving the double cover
branched over a curve of class with self-intersection L2 gives

    chi = (L2 - sum m_i(m_i - 1)) / 2,
    K^2 = 2*L2 - 2 * sum (m_i - 1)^2,

and the forest shape decides which points are negligible and whether a
consecutive-triple-point pair forces a non-minimal resolution.

A forest is validated and scored in one pass when it is built: the loop
that checks each node's d and parent also adds its chi and K^2 drops, its
(2d, 2d+2) pair with its parent and, when it can, its depth.  Construction
costs O(n log n) for n nodes of any depth (the sorts of the pairs and the
negligible ids); lookups after that take constant time, and `invariants`
and `detect_33_pairs` read the stored results.  Error messages are built
only when a check fails.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class ForestNode(NamedTuple):
    id: str
    d: int
    parent: Optional[str] = None


class SingularityForest:
    """Infinitely-near branch points; parent means 'in the first neighborhood of'.

    Construction validates the forest and scores it in one pass over the nodes:
    the id -> node map, the chi and K^2 drops, the (2d, 2d+2) pairs, the
    maximal depth and the negligible ids are stored, and `invariants` and
    `detect_33_pairs` read them.
    """

    def __init__(self, nodes: tuple[ForestNode, ...]) -> None:
        self.nodes = nodes
        by_id = {n.id: n for n in self.nodes}
        if len(by_id) != len(self.nodes):
            raise ValueError("duplicate node ids")
        # One pass checks each node's d and parent and scores it: its drops, its
        # pair with its parent, and its depth when it is a root or its parent's
        # depth is already known.  The other nodes wait for the walk below, which
        # runs only once every node has passed its checks.
        drop_chi = drop_k2 = 0
        pairs = []
        depths: dict[str, int] = {}
        unplaced = []
        for n in self.nodes:
            d = n.d
            if d < 2 or d % 2 != 0:
                raise ValueError(f"node {n.id}: multiplicity must be even and >= 2, got {d}")
            m = d // 2
            drop_chi += m * (m - 1)
            drop_k2 += (m - 1) * (m - 1)
            parent = n.parent
            if parent is None:
                depths[n.id] = 0
                continue
            p = by_id.get(parent)
            if p is None:
                raise ValueError(f"node {n.id}: unknown parent {parent}")
            if d == p.d + 2:
                pairs.append((p.id, n.id))
            if parent in depths:
                depths[n.id] = depths[parent] + 1
            else:
                unplaced.append(n)
        # Walk up from each unplaced node, in order, to a root or a node of known
        # depth, so every node is walked over once.  A node of known depth leads
        # to a root, so the first walk that meets itself starts at the first node
        # whose full walk up would, and names the same repeated node.
        for n in unplaced:
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
        pairs.sort()
        self._by_id = by_id
        self._max_depth = max(depths.values(), default=0)
        self._heavy = heavy
        self._negligible_ids = tuple(sorted(by_id.keys() - heavy))
        self._drops = (drop_chi, drop_k2)
        self._pairs = pairs

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
    return node_id not in f._heavy


def detect_33_pairs(f: SingularityForest) -> list[tuple[str, str]]:
    """All (parent, child) pairs with multiplicities (2d, 2d+2), d >= 1.

    The d = 1 instance is the triple-point-with-infinitely-near-triple-point
    configuration whose resolution carries a (-1)-curve.
    """
    return list(f._pairs)


def invariants(L2: int, f: SingularityForest) -> CoverInvariants:
    """Resolution invariants of the double cover branched over the configuration.

    Raw formula values are reported as-is.  The note field records the two
    situations where the raw numbers do not tell the whole story: a
    consecutive-triple-point pair (the resolution is non-minimal and the
    minimal model gains K^2 + 1; with several pairs the note gives the K^2 of
    one contraction and says that it covers one pair), and an all-negligible
    forest (the correction terms vanish identically, so chi = L2/2 and
    K^2 = 2*L2; in the chi = 1 classification context that case is excluded
    because it would force L2 = 2 and K^2 = 4).
    """
    if L2 <= 0 or L2 % 2 != 0:
        raise ValueError(f"L2 must be even and positive, got {L2}")
    drop_chi, drop_k2 = f._drops
    chi = (L2 - drop_chi) // 2
    k2 = 2 * L2 - 2 * drop_k2
    negligible = f._negligible_ids
    pairs = f._pairs

    notes = []
    if pairs:
        # A pair's (-1)-curve comes from an exceptional curve that lies in the
        # branch locus, that is, from a point of odd multiplicity (BHPV III.7).
        # d = 2*floor(mult/2) does not record that parity, so for several pairs
        # the forest cannot tell whether their curves are all there and
        # disjoint, and the figure is one contraction's.
        if len(pairs) == 1:
            k2_note = f"the minimal model has K^2 = {k2 + 1}"
        else:
            k2_note = (f"contracting one pair's (-1)-curve gives K^2 = {k2 + 1}; "
                       "this figure covers one pair only")
        notes.append(
            "resolution contains a (-1)-curve from the consecutive-triple-point "
            f"pair(s) {pairs}; {k2_note}"
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


def forest_from_json(payload: dict) -> tuple[int, SingularityForest]:
    """Parse {"L2": n, "nodes": [{"id", "d", "parent"}]} input.

    L2 and every d must be JSON integers, ids and parents strings or
    integers; anything else raises ValueError.  Each node is checked for
    id, then parent, then d; every node is checked before L2.
    """
    if not isinstance(payload, dict) or "L2" not in payload or "nodes" not in payload:
        raise ValueError("forest input needs 'L2' and 'nodes' keys")
    if not isinstance(payload["nodes"], list) or not all(
            isinstance(n, dict) for n in payload["nodes"]):
        raise ValueError("'nodes' must be a list of objects")
    nodes = []
    # type(x) is, not isinstance: a JSON true is a bool, which must not pass as an int
    for n in payload["nodes"]:
        node_id = n.get("id")
        if type(node_id) is not str:
            if type(node_id) is not int:
                raise ValueError(f"node id must be a JSON str or int, got {node_id!r}")
            node_id = str(node_id)
        parent = n.get("parent")
        if parent is not None and type(parent) is not str:
            if type(parent) is not int:
                raise ValueError(
                    f"node {node_id}: parent must be a JSON str or int, got {parent!r}")
            parent = str(parent)
        d = n.get("d")
        if type(d) is not int:
            raise ValueError(f"node {node_id}: d must be a JSON int, got {d!r}")
        # the fields are checked above; ForestNode.__new__ would only bind them
        nodes.append(tuple.__new__(ForestNode, (node_id, d, parent)))
    l2 = payload["L2"]
    if type(l2) is not int:
        raise ValueError(f"L2 must be a JSON int, got {l2!r}")
    return l2, SingularityForest(tuple(nodes))
