"""Spans around calls into paramod's public functions, recorded from outside.

The tracer replaces each listed function with a wrapper in every paramod
namespace that holds a reference to it (so `orbits.act` and
`cli.special_generators` are traced as well as `paramodular.act`), and
replaces the two listed methods on their classes.  Spans live in compact
arrays in memory and are summarised, or written out, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# module -> public functions, and (class, method) pairs, that get spans
TARGETS = {
    "cli": ["main"],
    "paramodular": ["special_generators", "is_member", "member", "parse_matrix",
                    "act", "act_pair"],
    "lattice": ["character_table", "square_roots", "parse_character"],
    "orbits": ["standard_orbit_report", "component_report", "orbits_all",
               "group_closure", "permutation_of", ("Permutation", "compose")],
    "classifier": ["classify", "surface_report", "moduli_decomposition"],
    "chern": ["dimension_ledger", "eagon_northcott_checks"],
    "doublecover": ["forest_from_json", "invariants", "is_negligible",
                    "detect_33_pairs", ("SingularityForest", "node")],
}


class Tracer:
    """Span log: name, start, end, parent span and op id, one entry per call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self._op_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name_id: int, t: float) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.start.append(t)
        self.end.append(t)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, t: float) -> None:
        self.end[idx] = t
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self._op_id = op_id
        return self.open(self.name_id("op"), time.perf_counter())

    def end_op(self, idx: int, start: float, end: float) -> None:
        """Close an op's root span on the interval its latency was taken over."""
        self.start[idx] = start
        self.close(idx, end)

    def add(self, name: str, start: float, end: float, parent: int, op_id: int) -> int:
        """Append a finished span (used for spans recorded in another process)."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op_id)
        return idx

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx, clock())
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def spans(self) -> dict:
        """The span columns (arrays, not copied) and the counters."""
        return {"names": self.names, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "counters": self.counters}


def _closure_hook(tracer, args, report):
    perms = args[0]
    initial = {type(perms[0]).identity(args[1]), *perms} if perms else set()
    tracer.count("closure.new", report.order - len(initial))


def _orbits_all_hook(tracer, args, _partition):
    tracer.count("orbits_all.states", len(args[0].elements))


def _forest_hook(tracer, _args, result):
    tracer.count("forest.nodes", len(result[1].nodes))


HOOKS = {"orbits.group_closure": _closure_hook, "orbits.orbits_all": _orbits_all_hook,
         "doublecover.forest_from_json": _forest_hook}


def install(tracer: Tracer) -> None:
    """Wrap every target in every paramod namespace that references it."""
    wrapped = {}
    for short, targets in TARGETS.items():
        module = importlib.import_module(f"paramod.{short}")
        for target in targets:
            if isinstance(target, tuple):
                cls_name, method = target
                cls = getattr(module, cls_name)
                setattr(cls, method, tracer.wrap(f"{short}.{method}", getattr(cls, method)))
                continue
            fn = getattr(module, target)
            name = f"{short}.{target}"
            wrapped[id(fn)] = tracer.wrap(name, fn, HOOKS.get(name))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "paramod" and not mod_name.startswith("paramod."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Spans of one thread nest, so direct children never overlap and their
    durations add up to the covered part of the parent's interval.
    """
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


def layer_totals(spans: dict, op_factors=None) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds.

    op_factors, if given, scales every span of op k by op_factors[k].
    """
    names, name, start, end, parent = (spans[k] for k in ("names", "name", "start", "end",
                                                          "parent"))
    selfs = self_times(start, end, parent)
    out = {n: {"calls": 0, "total": 0.0, "self": 0.0} for n in names}
    for i, nid in enumerate(name):
        f = op_factors[spans["op"][i]] if op_factors is not None else 1.0
        row = out[names[nid]]
        row["calls"] += 1
        row["total"] += f * (end[i] - start[i])
        row["self"] += f * selfs[i]
    return out


def child_count(spans: dict, child: str, parents: set[str]) -> int:
    """How many spans named child sit directly under a span named in parents."""
    names, name, parent = spans["names"], spans["name"], spans["parent"]
    return sum(1 for i, nid in enumerate(name)
               if names[nid] == child and parent[i] >= 0
               and names[name[parent[i]]] in parents)
