"""The benchmark's own arithmetic: percentiles, failure accounting and
span self time.  Pure functions, unit-tested in ``test_perfbench.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A reported percentile needs at least this many samples above it.
MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q`` quantile among ``n`` samples."""
    if n <= 0:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    return max(1, math.ceil(q * n - 1e-9))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q`` rank."""
    return n - rank(n, q)


def min_samples(q: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count leaving ``beyond`` samples above ``q``."""
    n = 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (a value that was actually observed)."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def supported(n: int, q: float, beyond: int = MIN_BEYOND) -> bool:
    """True when ``n`` samples leave ``beyond`` samples above ``q``."""
    return n > 0 and samples_beyond(n, q) >= beyond


@dataclass
class Outcome:
    """One attempted operation as the client saw it."""

    kind: str
    seconds: float
    #: HTTP status, or None when the transport failed.
    status: Optional[int]
    #: ``perf_counter`` when the reply arrived.
    end: float = 0.0
    #: None until the oracle has checked it; False marks a wrong answer.
    correct: Optional[bool] = None


def is_failed(outcome: Outcome) -> bool:
    """Non-2xx replies (sheds included), transport errors and wrong
    answers all count as failed."""
    if outcome.status is None or not 200 <= outcome.status < 300:
        return True
    return outcome.correct is False


def failed_frac(outcomes: Sequence[Outcome]) -> Tuple[int, int, float]:
    """``(failed, attempted, failed / attempted)``."""
    attempted = len(outcomes)
    failed = sum(1 for outcome in outcomes if is_failed(outcome))
    return failed, attempted, (failed / attempted if attempted else 0.0)


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """Span duration minus the part of it its children cover.

    Children may overlap each other (coalesced or threaded calls), so
    the covered part is the length of their union, clipped to the
    parent interval, never their sum.
    """
    clipped = [
        (max(start, child_start), min(end, child_end))
        for child_start, child_end in children
    ]
    return (end - start) - union_length(clipped)


@dataclass
class SpanRecord:
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]


def layer_totals(spans: List[SpanRecord]) -> Dict[str, Dict[str, float]]:
    """Per layer: span count and summed self time."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(span.layer, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_time(
            span.start, span.end, children.get(index, ())
        )
    return totals

