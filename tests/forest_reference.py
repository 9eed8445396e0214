"""Reference copy of the forest input checks, one pass per check.

These are the checks of `paramod.doublecover.forest_from_json` and
`SingularityForest.__init__` as they stood before construction merged its
validation and scoring into one loop: field types node by node, then L2,
then duplicate ids, then each node's d and parent, then the parent-cycle
walk.  The fault-order tests compare the first ValueError text of the
library with the one these raise.
"""

from __future__ import annotations


def check_nodes(nodes) -> None:
    """Raise the first structural fault of (id, d, parent) nodes, in the old order."""
    by_id = {n[0]: n for n in nodes}
    if len(by_id) != len(nodes):
        raise ValueError("duplicate node ids")
    for node_id, d, parent in nodes:
        if d < 2 or d % 2 != 0:
            raise ValueError(f"node {node_id}: multiplicity must be even and >= 2, got {d}")
        if parent is not None and parent not in by_id:
            raise ValueError(f"node {node_id}: unknown parent {parent}")
    depths: dict[str, int] = {}
    for node_id, _, parent in nodes:
        if node_id in depths:
            continue
        if parent is None:
            depths[node_id] = 0
            continue
        if parent in depths:
            depths[node_id] = depths[parent] + 1
            continue
        path = [node_id]
        on_path = {node_id}
        cur = parent
        while cur is not None and cur not in depths:
            if cur in on_path:
                raise ValueError(f"parent cycle through {cur}")
            path.append(cur)
            on_path.add(cur)
            cur = by_id[cur][2]
        depth = 0 if cur is None else depths[cur] + 1
        for walked in reversed(path):
            depths[walked] = depth
            depth += 1


def check_payload(payload) -> None:
    """Raise the first fault of forest JSON input, in the old order."""
    if not isinstance(payload, dict) or "L2" not in payload or "nodes" not in payload:
        raise ValueError("forest input needs 'L2' and 'nodes' keys")
    if not isinstance(payload["nodes"], list) or not all(
            isinstance(n, dict) for n in payload["nodes"]):
        raise ValueError("'nodes' must be a list of objects")
    nodes = []
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
        nodes.append((node_id, d, parent))
    l2 = payload["L2"]
    if type(l2) is not int:
        raise ValueError(f"L2 must be a JSON int, got {l2!r}")
    check_nodes(nodes)
