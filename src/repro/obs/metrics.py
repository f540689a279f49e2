"""A dependency-free metrics registry: counters, gauges, histograms.

The telemetry spine of the serving stack.  Three metric kinds, all
labeled, all thread-safe, all *mergeable* — a worker process snapshots
its registry as plain picklable data, the pool folds worker snapshots
together bucket-wise, and the HTTP front renders the merged snapshot
in Prometheus text exposition format for ``GET /metrics``:

* :class:`Counter` — monotone event counts (requests by tier, fallback
  reasons, samples drawn);
* :class:`Gauge` — a settable level (in-flight requests, the last
  Monte Carlo interval half-width);
* :class:`Histogram` — fixed-bucket latency distributions.  Buckets
  are cumulative-on-render (Prometheus ``le`` semantics) but stored as
  per-bucket counts so that merging two histograms is an element-wise
  sum — associative and commutative, which is what lets per-worker
  histograms aggregate into pool-level ones in any order.  p50/p95/p99
  come from linear interpolation inside the owning bucket
  (:meth:`Histogram.quantile`).

Design constraints, in order: no third-party dependencies, cheap
enough to leave on in production (one lock acquisition per event), and
a disabled mode (``MetricsRegistry(enabled=False)``) whose metric
handles are shared no-ops — the knob ``benchmarks/bench_obs.py`` uses
to pin the instrumentation overhead.

>>> registry = MetricsRegistry()
>>> requests = registry.counter("demo_requests_total", "requests", ("tier",))
>>> requests.labels("safe-plan").inc()
>>> requests.labels("safe-plan").inc(2)
>>> latency = registry.histogram("demo_seconds", "latency")
>>> for ms in (1, 2, 3, 4):
...     latency.observe(ms / 1000.0)
>>> print(render_prometheus(registry.snapshot()).splitlines()[2])
demo_requests_total{tier="safe-plan"} 3
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Ewma",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "merge_snapshots",
    "render_prometheus",
]

#: Default latency buckets (seconds): 100µs to 10s, roughly 1-2.5-5
#: per decade.  Chosen to straddle the stack's bimodal costs — safe
#: plans in the sub-millisecond range, compiled evaluations around
#: milliseconds, Monte Carlo fallbacks from tens of milliseconds up.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Ewma:
    """An exponentially weighted moving average, optionally seeded.

    The serving stack's smoothing primitive: the pool's overload
    detector tracks its noisy per-batch queue waits through one of
    these.  ``observe`` folds a
    sample in and returns the new level; an unseeded average snaps to
    its first sample instead of warming up from zero (a queue-wait
    average that spent its first hundred batches climbing from 0.0
    would mask a cold-start overload).

    Not a registry metric (it has no labels and doesn't render); gauge
    the ``.value`` if it should be scraped.

    >>> average = Ewma(alpha=0.5)
    >>> average.observe(1.0)
    1.0
    >>> average.observe(0.0)
    0.5
    """

    __slots__ = ("alpha", "value", "_seeded")

    def __init__(self, alpha: float = 0.2,
                 initial: Optional[float] = None) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value = 0.0 if initial is None else float(initial)
        self._seeded = initial is not None

    def observe(self, sample: float) -> float:
        if self._seeded:
            self.value += self.alpha * (sample - self.value)
        else:
            self.value = float(sample)
            self._seeded = True
        return self.value


class Counter:
    """One monotone counter (a single labeled child of a family)."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """A settable level; ``inc``/``dec`` for tracked quantities."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """A fixed-bucket histogram with mergeable per-bucket counts.

    ``bounds`` are the finite bucket upper bounds (inclusive, sorted
    strictly increasing); one extra overflow bucket catches everything
    above the last bound (rendered as ``le="+Inf"``).
    """

    __slots__ = ("_lock", "bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError(
                f"bucket bounds must be non-empty and strictly "
                f"increasing, got {bounds}"
            )
        self._lock = threading.Lock()
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by in-bucket interpolation.

        Values in the overflow bucket are reported as the last finite
        bound (the estimate saturates there — fixed buckets cannot see
        beyond their range).  Returns ``nan`` on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self.counts)
            total = self.count
        if total == 0:
            return math.nan
        target = q * total
        cumulative = 0.0
        lower = 0.0
        for index, count in enumerate(counts):
            upper = (
                self.bounds[index]
                if index < len(self.bounds)
                else self.bounds[-1]
            )
            if count and cumulative + count >= target:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                fraction = (target - cumulative) / count
                return lower + fraction * (upper - lower)
            cumulative += count
            lower = upper
        return self.bounds[-1]


class _NullMetric:
    """Shared no-op child for a disabled registry — every mutator is a
    constant-time method on one singleton, so instrumented code paths
    cost a dictionary-free call when telemetry is off."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, *values) -> "_NullMetric":
        return self


_NULL_METRIC = _NullMetric()

_KINDS = {"counter": Counter, "gauge": Gauge}


class MetricFamily:
    """A named metric with a fixed label set and one child per value
    combination.  Unlabeled families proxy straight to their single
    child, so ``family.inc()`` / ``family.observe(x)`` just work."""

    __slots__ = (
        "kind", "name", "help", "labelnames", "buckets", "_children", "_lock",
    )

    def __init__(
        self,
        kind: str,
        name: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.kind = kind
        self.name = name
        self.help = help_text
        self.labelnames = labelnames
        self.buckets = buckets
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def labels(self, *values) -> object:
        key = tuple(str(value) for value in values)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {key}"
            )
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    if self.kind == "histogram":
                        child = Histogram(self.buckets)
                    else:
                        child = _KINDS[self.kind]()
                    self._children[key] = child
        return child

    # Unlabeled convenience passthroughs ------------------------------
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def quantile(self, q: float) -> float:
        return self.labels().quantile(q)


class MetricsRegistry:
    """A process-local collection of metric families.

    ``enabled=False`` returns shared no-op handles from every factory
    method and snapshots to an empty dict — instrumented code does not
    need to branch on whether telemetry is on.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def counter(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family("counter", name, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family("gauge", name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self._family(
            "histogram", name, help_text, labelnames, tuple(buckets)
        )

    def _family(
        self,
        kind: str,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> MetricFamily:
        if not self.enabled:
            return _NULL_METRIC  # type: ignore[return-value]
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if (
                    family.kind != kind
                    or family.labelnames != labelnames
                    or family.buckets != buckets
                ):
                    raise ValueError(
                        f"metric {name!r} re-registered with a different "
                        f"kind/labels/buckets"
                    )
                return family
            family = MetricFamily(kind, name, help_text, labelnames, buckets)
            self._families[name] = family
            return family

    def snapshot(self) -> dict:
        """A plain picklable copy of every family's current values.

        The shape is the merge/render interchange format::

            {name: {"kind": ..., "help": ..., "labels": (...),
                    "buckets": (...) | None,
                    "values": {labelvalues: number | histogram-dict}}}
        """
        out: dict = {}
        for name, family in list(self._families.items()):
            values: dict = {}
            for key, child in list(family._children.items()):
                if family.kind == "histogram":
                    with child._lock:
                        values[key] = {
                            "counts": list(child.counts),
                            "sum": child.sum,
                            "count": child.count,
                        }
                else:
                    values[key] = child.value
            out[name] = {
                "kind": family.kind,
                "help": family.help,
                "labels": family.labelnames,
                "buckets": family.buckets,
                "values": values,
            }
        return out


#: A shared disabled registry — the default ``metrics`` argument of
#: instrumented components, so "no registry supplied" costs nothing.
NULL_REGISTRY = MetricsRegistry(enabled=False)


def merge_snapshots(*snapshots: dict) -> dict:
    """Fold registry snapshots together: counters and histogram buckets
    sum element-wise, gauges sum (the pool-level reading of a
    per-worker level — e.g. total in-flight across workers).

    Element-wise summation makes the merge associative and commutative
    — ``merge(a, merge(b, c)) == merge(merge(a, b), c)`` for any
    grouping or ordering, which ``tests/test_obs.py`` pins.
    Histograms under the same name must share bucket bounds.
    """
    merged: dict = {}
    for snapshot in snapshots:
        for name, family in snapshot.items():
            target = merged.get(name)
            if target is None:
                merged[name] = {
                    "kind": family["kind"],
                    "help": family["help"],
                    "labels": family["labels"],
                    "buckets": family["buckets"],
                    "values": {
                        key: (dict(value) if isinstance(value, dict) else value)
                        for key, value in family["values"].items()
                    },
                }
                continue
            if (
                target["kind"] != family["kind"]
                or target["buckets"] != family["buckets"]
            ):
                raise ValueError(
                    f"cannot merge metric {name!r}: mismatched "
                    f"kind or bucket layout"
                )
            for key, value in family["values"].items():
                existing = target["values"].get(key)
                if existing is None:
                    target["values"][key] = (
                        dict(value) if isinstance(value, dict) else value
                    )
                elif isinstance(value, dict):
                    existing["counts"] = [
                        a + b
                        for a, b in zip(existing["counts"], value["counts"])
                    ]
                    existing["sum"] += value["sum"]
                    existing["count"] += value["count"]
                else:
                    target["values"][key] = existing + value
    return merged


def quantile_from_buckets(
    counts: Sequence[int], bounds: Sequence[float], q: float
) -> float:
    """:meth:`Histogram.quantile` over raw snapshot data (merged
    histograms are snapshots, not live :class:`Histogram` objects)."""
    total = sum(counts)
    if total == 0:
        return math.nan
    target = q * total
    cumulative = 0.0
    lower = 0.0
    for index, count in enumerate(counts):
        upper = bounds[index] if index < len(bounds) else bounds[-1]
        if count and cumulative + count >= target:
            if index >= len(bounds):
                return bounds[-1]
            fraction = (target - cumulative) / count
            return lower + fraction * (upper - lower)
        cumulative += count
        lower = upper
    return bounds[-1]


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')
    )


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _format_bound(bound: float) -> str:
    return _format_value(float(bound))


def _labels_text(names: Sequence[str], values: Sequence[str],
                 extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(names, values)
    ]
    pairs.extend(f'{name}="{_escape_label(value)}"' for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(snapshot: dict) -> str:
    """Render a (possibly merged) snapshot as Prometheus text
    exposition format (version 0.0.4): ``# HELP`` / ``# TYPE`` headers,
    one sample line per child, cumulative ``le`` buckets plus ``_sum``
    and ``_count`` for histograms."""
    lines: List[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        kind = family["kind"]
        labelnames = family["labels"]
        lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for key in sorted(family["values"]):
            value = family["values"][key]
            if kind != "histogram":
                lines.append(
                    f"{name}{_labels_text(labelnames, key)} "
                    f"{_format_value(value)}"
                )
                continue
            cumulative = 0
            for index, bound in enumerate(family["buckets"]):
                cumulative += value["counts"][index]
                lines.append(
                    f"{name}_bucket"
                    f"{_labels_text(labelnames, key, [('le', _format_bound(bound))])}"
                    f" {cumulative}"
                )
            lines.append(
                f"{name}_bucket"
                f"{_labels_text(labelnames, key, [('le', '+Inf')])}"
                f" {value['count']}"
            )
            lines.append(
                f"{name}_sum{_labels_text(labelnames, key)} "
                f"{_format_value(value['sum'])}"
            )
            lines.append(
                f"{name}_count{_labels_text(labelnames, key)} "
                f"{value['count']}"
            )
    return "\n".join(lines) + "\n" if lines else ""
