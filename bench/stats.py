"""Percentiles, spreads and compare verdicts, all on statistics.quantiles'
default (exclusive) method."""

from __future__ import annotations

import statistics

MIN_ABOVE = 10
# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def percentile(values, p: float) -> float:
    """p-th percentile (0 < p < 100, a multiple of 0.1)."""
    if p == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=1000)[round(p * 10) - 1]


def above(values, threshold: float) -> int:
    return sum(1 for v in values if v > threshold)


def tail_percentile(values, min_above: int = MIN_ABOVE):
    """Highest candidate percentile with at least min_above samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(values) >= 2 and above(values, percentile(values, p)) >= min_above:
            return p
    return None


def quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def verdict(parent, change, better: str, bound: float) -> tuple[str, int, int]:
    """Verdict on one metric from paired runs of the parent and the change.

    improved    the change wins at least 9 of every 10 pairs (ties count for
                neither side, at least 10 pairs) and the medians differ by more
                than the parent's interquartile range;
    worse       the change's median is worse than the parent's by more than
                bound times the parent's median;
    unresolved  the parent's own spread is wider than the bound, unless every
                change run is better than every parent run;
    no worse    otherwise.
    Returns (verdict, wins, pairs).
    """
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = quartiles(parent) if len(parent) >= 2 else (pm, pm, pm)
    gain = sign * (cm - pm)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved", wins, len(pairs)
    if -gain > bound * abs(pm):
        return "worse", wins, len(pairs)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pm and (q3 - q1) / abs(pm) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    return "no worse", wins, len(pairs)
