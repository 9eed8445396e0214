"""Machine-speed reference, so that run-to-run speed swings cancel out.

On a shared machine a core can run the same Python code 1.5x slower for
seconds at a time, depending on what runs beside it.  The benchmark pins
itself and its children to one core and, every SAMPLE_INTERVAL seconds
between ops, times a fixed reference task.  Each op's time is scaled by
REF_MS / (reference time around it): timings are reported in milliseconds
of a core on which the reference task takes REF_MS.  The raw wall-clock
figures stay in the result metadata.

Code slows down by different amounts in the slow state, so there are two
tasks: Fraction matrix products, which slow down like the membership checks
and the orbit work, and attribute lookups in a list scan, which slow down
like the forest ops and CLI subprocesses (measured on the machine the bounds
were set on).
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

REF_MS = 1.0
SAMPLE_INTERVAL = 0.1
_M = tuple(tuple(Fraction(3 * i + j + 1, j + 2) for j in range(4)) for i in range(4))


class _Node:
    __slots__ = ("id",)

    def __init__(self, node_id):
        self.id = node_id


_NODES = [_Node(f"n{i}") for i in range(300)]
_KEYS = [node.id for node in _NODES]


def _fraction_task() -> int:
    total = 0
    for _ in range(4):
        prod = tuple(tuple(sum(_M[i][k] * _M[k][j] for k in range(4)) for j in range(4))
                     for i in range(4))
        seen = {cell: (i, j) for i, row in enumerate(prod) for j, cell in enumerate(row)}
        total += len(seen)
    return total


def _scan_task() -> int:
    found = 0
    for key in _KEYS:
        for node in _NODES:
            if node.id == key:
                found += 1
                break
    return found


TASKS = {"membership_batch": _fraction_task, "orbit_warm": _fraction_task}


def reference_ms(workload: str) -> float:
    """Fastest of three timings of the workload's reference task, in ms."""
    task = TASKS.get(workload, _scan_task)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        task()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def pin_to_one_core() -> int:
    """Run this process and its future children on one core; returns it."""
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


class Meter:
    """Reference samples taken between ops, indexed by the ops done so far."""

    def __init__(self, workload: str):
        self.workload = workload
        self.samples: list[tuple[int, float]] = []
        self.spent = 0.0
        self._last = -1.0

    def sample(self, ops_done: int, force: bool = True) -> None:
        now = time.perf_counter()
        if not force and now - self._last < SAMPLE_INTERVAL:
            return
        self.samples.append((ops_done, reference_ms(self.workload)))
        self._last = time.perf_counter()
        self.spent += self._last - now

    def factors(self, ops: int) -> list[float]:
        """Per op: REF_MS over the mean of the samples just before and after it."""
        out = []
        k = 0
        for i in range(ops):
            while k + 1 < len(self.samples) and self.samples[k + 1][0] <= i:
                k += 1
            after = self.samples[min(k + 1, len(self.samples) - 1)][1]
            out.append(2 * REF_MS / (self.samples[k][1] + after))
        return out
