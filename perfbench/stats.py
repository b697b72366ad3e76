"""Percentiles, cold/warm classification and interval arithmetic.

Pure functions over plain numbers, shared by the untraced run (end-to-end
metrics) and the traced run (per-layer metrics).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only where at least this many samples lie above it.
MIN_BEYOND = 10


def rank_index(count: int, q: float) -> int:
    """Zero-based nearest-rank position of the ``q``-th percentile of ``count`` samples."""
    return max(1, math.ceil(q / 100.0 * count)) - 1


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` sorted samples lie above the ``q``-th percentile."""
    if count <= 0:
        return 0
    return count - rank_index(count, q) - 1


def supported(count: int, q: float) -> bool:
    """Whether ``count`` samples support the ``q``-th percentile (>= 10 beyond it)."""
    return samples_beyond(count, q) >= MIN_BEYOND


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or ``None`` for an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[rank_index(len(ordered), q)]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def hit_share(counter: Dict[str, int]) -> float:
    """Hits over lookups of an LRU ``stats()`` dict."""
    hits = counter.get("hits", 0)
    return share(hits, hits + counter.get("misses", 0))


def classify_cold(events: Iterable[Tuple[Hashable, float]]) -> List[bool]:
    """Mark each ``(key, completed_at)`` event cold or warm, index-aligned.

    An event is cold when it is the first *answer* for its key — the
    earliest completion, whatever the send order — and warm otherwise.
    Two requests for a new key that overlap count one cold and one warm.
    """
    events = list(events)
    cold = [False] * len(events)
    seen = set()
    for position in sorted(range(len(events)), key=lambda i: events[i][1]):
        key = events[position][0]
        if key not in seen:
            seen.add(key)
            cold[position] = True
    return cold


def covered(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if end > low and start < high
    )
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(
    span: Tuple[float, float], children: Iterable[Tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its children cover."""
    start, end = span
    return (end - start) - covered(children, start, end)
