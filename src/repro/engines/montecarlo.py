"""Monte Carlo estimation — MystiQ's fallback for unsafe queries.

:class:`MonteCarloEngine` samples the grounded DNF lineage with the
**Karp–Luby** estimator: the classical FPRAS for DNF counting, adapted
to weighted (probabilistic) literals, whose relative error is
controlled regardless of how small the answer is.
:func:`naive_estimate` — draw worlds of the events the lineage
mentions, count satisfied DNFs; simple but inaccurate when the query
probability is tiny — stays as a function, the baseline that the
sampling benchmark and the parity tests hold Karp–Luby against.

The paper's introduction motivates the dichotomy with exactly this
trade-off: safe plans answer in seconds, simulation in minutes — one
to two orders of magnitude apart for comparable accuracy.

The estimators come in two backends:

* ``"numpy"`` — the vectorized core: worlds are columns of an
  ``(n_events, batch)`` bit matrix over the
  :class:`~repro.lineage.packed.PackedLineage` structure, and every
  clause of every sample is evaluated in one padded gather + fold
  (see ``benchmarks/bench_sampling.py`` for the measured speedup).
  The hot loop reuses a preallocated
  :class:`~repro.lineage.packed.SampleArena`, so repeated
  ``extend()`` calls allocate nothing per batch;
* ``"python"`` — the original scalar loops, kept as the correctness
  oracle and as the fallback when numpy is unavailable.

``backend="auto"`` (the default everywhere) picks numpy when it is
installed, python otherwise.

Every read is a *multisimulation* (:meth:`MonteCarloEngine.answers`):
one incremental Karp–Luby sampler per answer, with sampling focused on
the answers whose confidence intervals still overlap the top-k
boundary.  Answers whose interval is dominated stop consuming samples,
so ranking the top k converges far faster than k independent
full-precision runs.  ``p(q)`` is the one answer ``()`` of the query
with the empty head, sampled the same way.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

try:  # pragma: no cover - exercised by whichever env runs the suite
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

from ..core.union import AnyQuery
from ..db.database import GroundTuple, ProbabilisticDatabase, TupleKey
from ..lineage.boolean import Clause, Lineage
from ..lineage.grounding import ground_answer_lineages
from ..lineage.packed import PackedLineage, SampleArena, clause_sort_key
from ..lineage.planner import GroundingPlanner
from ..obs.metrics import NULL_REGISTRY, MetricsRegistry
from .base import Answer, Engine, clamp01, rank_answers

BACKENDS = ("auto", "numpy", "python")

#: The estimator's label on ``repro_mc_samples_total``.
METHOD = "karp-luby"

#: Cap on elements per numpy intermediate (~bytes, matrices are bool):
#: keeps the world/satisfaction matrices cache-friendly and bounds
#: memory for huge sample requests.
_BATCH_ELEMENTS = 1 << 22


def resolve_backend(backend: str) -> str:
    """Normalize a backend name, validating availability."""
    if backend == "auto":
        return "python" if np is None else "numpy"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown sampling backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "numpy" and np is None:
        raise RuntimeError("numpy backend requested but numpy is unavailable")
    return backend


def _batches(samples: int, per_sample_cost: int) -> Iterator[int]:
    cap = max(1, _BATCH_ELEMENTS // max(1, per_sample_cost))
    while samples > 0:
        batch = min(samples, cap)
        yield batch
        samples -= batch


class MonteCarloEngine(Engine):
    """Estimate answer probabilities by Karp–Luby sampling of the
    grounded lineages."""

    name = "monte-carlo"

    def __init__(
        self,
        samples: int = 20_000,
        seed: Optional[int] = None,
        backend: str = "auto",
        metrics: Optional[MetricsRegistry] = None,
        planner: Optional[GroundingPlanner] = None,
    ) -> None:
        self.samples = samples
        self.seed = seed
        self.backend = resolve_backend(backend)
        self.planner = planner
        #: After ``answers``: per-answer (estimate, 95% half-width).
        self.last_intervals: Dict[GroundTuple, Tuple[float, float]] = {}
        #: After ``answers``: total samples drawn across all answers.
        self.last_samples_drawn: int = 0
        registry = metrics if metrics is not None else NULL_REGISTRY
        #: Kept so :meth:`reconfigured` clones carry the same registry.
        self._registry = registry
        self._metric_samples = registry.counter(
            "repro_mc_samples_total",
            "Monte Carlo samples drawn, by estimator method",
            ("method",),
        )
        self._metric_batch = registry.histogram(
            "repro_mc_batch_size",
            "Sample batch sizes handed to the sampling backend",
            buckets=(16, 64, 256, 1024, 4096, 16384, 65536),
        )
        self._metric_half_width = registry.gauge(
            "repro_mc_half_width",
            "95% confidence half-width of the most recent estimate "
            "(worst per-answer width for multisimulation runs)",
        )
        self._metric_estimates = registry.counter(
            "repro_mc_estimates_total",
            "Lineage estimates completed (one per answer or query)",
        )

    def reconfigured(self, *, samples: Optional[int] = None) -> "MonteCarloEngine":
        """A clone of this engine with selected knobs overridden.

        Unlike rebuilding by hand with ``type(engine)(...)``, the clone
        keeps *every* constructor argument — seed, backend, planner and
        the metrics registry — so per-call overrides (the serving
        layer's ``samples=`` escape hatch) do not silently reset
        anything else.
        """
        return type(self)(
            samples=self.samples if samples is None else samples,
            seed=self.seed,
            backend=self.backend,
            metrics=self._registry,
            planner=self.planner,
        )

    # No caller in src/; kept because perfbench/tracing.py patches it.
    def estimate_lineage(self, lineage: Lineage) -> Tuple[float, float]:
        """Estimate plus half-width for an already-grounded lineage.

        Sampling starts from the lineage as given, without paying for
        grounding again.
        """
        estimate, half_width = estimate_lineage(
            lineage, self.samples, self.seed, self.backend
        )
        if not (lineage.certainly_true or lineage.is_false):
            self._metric_samples.labels(METHOD).inc(self.samples)
            self._metric_batch.observe(self.samples)
            self._metric_estimates.inc()
            self._metric_half_width.set(half_width)
        return estimate, half_width

    def answers(
        self,
        query: AnyQuery,
        db: ProbabilisticDatabase,
        k: Optional[int] = None,
    ) -> List[Answer]:
        """Multisimulation-style ranked answers.

        Grounds all per-answer lineages in one pass, then interleaves
        incremental Karp–Luby rounds: each round samples only the
        *critical* answers — those whose confidence interval still
        overlaps the boundary between the current top-k and the rest.
        Settled answers keep their estimate; each answer is capped at
        ``self.samples`` draws, so the worst case matches k independent
        runs while separated instances stop much earlier.  A Boolean
        query samples its one answer ``()`` to the full cap; ``k = 0``
        draws nothing.

        Per-answer intervals and the total sample count are left in
        ``last_intervals`` / ``last_samples_drawn``.
        """
        return self.answers_from_lineages(
            ground_answer_lineages(query, db, planner=self.planner), k
        )

    def answers_from_lineages(
        self,
        lineages: Dict[GroundTuple, Lineage],
        k: Optional[int] = None,
    ) -> List[Answer]:
        """Multisimulation over already-grounded per-answer lineages."""
        rng = random.Random(self.seed)
        samplers: Dict[GroundTuple, KarpLubySampler] = {}
        intervals: Dict[GroundTuple, Tuple[float, float]] = {}
        for answer, lineage in lineages.items():
            if lineage.certainly_true:
                intervals[answer] = (1.0, 0.0)
            elif lineage.is_false:
                continue
            else:
                samplers[answer] = KarpLubySampler(
                    lineage, random.Random(rng.randrange(2**31)), self.backend
                )
                intervals[answer] = (0.0, 1.0)
        drawn = 0
        batch = max(64, self.samples // 16)
        while True:
            critical = self._critical_answers(intervals, samplers, k)
            runnable = [
                answer for answer in critical
                if samplers[answer].drawn < self.samples
            ]
            if not runnable:
                break
            for answer in runnable:
                sampler = samplers[answer]
                step = min(batch, self.samples - sampler.drawn)
                sampler.extend(step)
                drawn += step
                self._metric_batch.observe(step)
                estimate, half_width = sampler.interval()
                # Clamp reported estimates into [0, 1] — the unbiased
                # estimator can overshoot on tiny-probability answers.
                intervals[answer] = (clamp01(estimate), half_width)
        self.last_intervals = dict(intervals)
        self.last_samples_drawn = drawn
        self._metric_samples.labels(METHOD).inc(drawn)
        self._metric_estimates.inc(len(intervals))
        if samplers:
            self._metric_half_width.set(
                max(intervals[answer][1] for answer in samplers)
            )
        results = [
            (answer, estimate)
            for answer, (estimate, _half_width) in intervals.items()
        ]
        return rank_answers(results, k)

    @staticmethod
    def _critical_answers(
        intervals: Dict[GroundTuple, Tuple[float, float]],
        samplers: Dict[GroundTuple, "KarpLubySampler"],
        k: Optional[int],
    ) -> List[GroundTuple]:
        """Answers whose interval still straddles the top-k boundary.

        Without ``k`` every unsettled sampler is critical (all answers
        need full precision).  With ``k``, take the answers with the k
        largest estimates as the provisional winners: a winner is
        settled once its lower bound clears every outsider's upper
        bound, an outsider once its upper bound is dominated.  With no
        winners (``k = 0``) nothing is critical.
        """
        if k is None or len(intervals) <= k:
            return [
                answer for answer in samplers
                if intervals[answer][1] > 0.0
            ]
        ranked = sorted(
            intervals, key=lambda answer: -intervals[answer][0]
        )
        winners = ranked[:k]
        if not winners:
            return []
        outsiders = ranked[k:]
        boundary_low = min(
            intervals[answer][0] - intervals[answer][1] for answer in winners
        )
        boundary_high = max(
            intervals[answer][0] + intervals[answer][1] for answer in outsiders
        )
        critical: List[GroundTuple] = []
        for answer in winners:
            estimate, half_width = intervals[answer]
            if answer in samplers and estimate - half_width < boundary_high:
                critical.append(answer)
        for answer in outsiders:
            estimate, half_width = intervals[answer]
            if answer in samplers and estimate + half_width > boundary_low:
                critical.append(answer)
        return critical


def naive_estimate(
    lineage: Lineage,
    samples: int,
    rng: random.Random,
    backend: str = "auto",
) -> float:
    """Fraction of sampled worlds satisfying the DNF."""
    if resolve_backend(backend) == "numpy":
        return _naive_estimate_numpy(lineage, samples, rng)
    return _naive_estimate_python(lineage, samples, rng)


def _naive_estimate_python(
    lineage: Lineage, samples: int, rng: random.Random
) -> float:
    events = sorted(lineage.events(), key=str)
    weights = [lineage.weights[event] for event in events]
    index = {event: i for i, event in enumerate(events)}
    clauses = [
        [(index[key], polarity) for key, polarity in clause]
        for clause in lineage.clauses
    ]
    hits = 0
    for _ in range(samples):
        world = [rng.random() < w for w in weights]
        if any(
            all(world[i] == polarity for i, polarity in clause)
            for clause in clauses
        ):
            hits += 1
    return hits / samples


def _naive_estimate_numpy(
    lineage: Lineage, samples: int, rng: random.Random
) -> float:
    """All worlds of a batch at once: uniform matrix, CSR clause fold."""
    packed = PackedLineage.of(lineage)
    if packed.n_clauses == 0:
        return 0.0
    nprng = np.random.default_rng(rng.randrange(2**63))
    arena = SampleArena()
    hits = 0
    for batch in _batches(samples, packed.batch_cost):
        worlds = packed.sample_worlds(nprng, batch, arena)
        hits += int(
            packed.clause_satisfaction(worlds, arena).any(axis=0).sum()
        )
    return hits / samples


class KarpLubySampler:
    """An incremental Karp–Luby estimator over one lineage.

    With ``m_i = P(clause_i)`` and ``M = Σ m_i``, a trial samples clause
    ``i`` with probability ``m_i / M`` and a world satisfying it; "``i``
    is the world's first satisfied clause" has expectation ``p / M``.

    Keeps the clause distribution and counters between calls, so the
    multisimulation can add samples to one answer without restarting;
    ``interval`` reports the running estimate and its 95% half-width
    from the binomial CLT (the indicator variable is Bernoulli with
    mean ``p / M``).

    With the numpy backend, :meth:`extend` is fully batched: one
    weighted ``choice`` over the packed clause distribution picks all
    trial clauses, one uniform matrix draws all worlds, and coverage
    for the whole batch is one matrix pass (forced clause literals +
    padded-gather fold).  Batch buffers live in a per-sampler
    :class:`~repro.lineage.packed.SampleArena`, so the ``extend`` loop
    reuses one allocation across batches.
    """

    __slots__ = (
        "rng",
        "backend",
        "hits",
        "drawn",
        "total",
        "weights",
        "clauses",
        "cumulative",
        "packed",
        "arena",
        "_np_rng",
    )

    def __init__(
        self,
        lineage: Lineage,
        rng: random.Random,
        backend: str = "auto",
    ) -> None:
        self.rng = rng
        self.backend = resolve_backend(backend)
        self.hits = 0
        self.drawn = 0
        if self.backend == "numpy":
            self.packed = PackedLineage.of(lineage)
            self.total = self.packed.total
            self.arena = SampleArena()
            # Derived from the scalar rng so one seed fixes the run.
            self._np_rng = np.random.default_rng(rng.randrange(2**63))
            return
        self.weights = lineage.weights
        self.clauses: List[Clause] = sorted(lineage.clauses, key=clause_sort_key)
        probs = [_clause_probability(c, self.weights) for c in self.clauses]
        self.total = sum(probs)
        self.cumulative: List[float] = []
        acc = 0.0
        for prob in probs:
            acc += prob
            self.cumulative.append(acc)

    def extend(self, samples: int) -> None:
        """Draw ``samples`` more Karp–Luby trials."""
        if self.total == 0.0:
            self.drawn += samples
            return
        if self.backend == "numpy":
            self._extend_numpy(samples)
        else:
            self._extend_python(samples)
        self.drawn += samples

    def _extend_python(self, samples: int) -> None:
        for _ in range(samples):
            pick = self.rng.random() * self.total
            chosen = _bisect(self.cumulative, pick)
            world: Dict[TupleKey, bool] = {
                key: polarity for key, polarity in self.clauses[chosen]
            }
            for earlier in range(chosen):
                if _clause_satisfied(
                    self.clauses[earlier], world, self.weights, self.rng
                ):
                    break
            else:
                self.hits += 1

    def _extend_numpy(self, samples: int) -> None:
        packed = self.packed
        arena = self.arena
        for batch in _batches(samples, packed.batch_cost):
            chosen, worlds = self._draw_batch(batch, arena)
            self.hits += packed.coverage_hits(worlds, chosen, arena)

    def _draw_batch(self, batch: int, arena: Optional[SampleArena] = None):
        """One batch of (chosen clause ids, forced world matrix).

        Sampling every event up front and then overwriting the chosen
        clause's literals is distributionally identical to the scalar
        backend's lazy per-event draws: either way, events outside the
        chosen clause are independent Bernoulli draws.  With an
        ``arena`` the matrices land in its reusable buffers — same
        values, zero per-batch allocation.
        """
        packed = self.packed
        chosen = packed.sample_clauses(self._np_rng, batch)
        worlds = packed.sample_worlds(self._np_rng, batch, arena)
        packed.force_clauses(worlds, chosen)
        return chosen, worlds

    def estimate(self) -> float:
        if self.drawn == 0 or self.total == 0.0:
            return 0.0
        return self.total * self.hits / self.drawn

    def interval(self) -> Tuple[float, float]:
        """(estimate, 95% half-width); (0, 1) before any draw.

        The width uses the Agresti–Coull smoothed ratio, which stays
        strictly positive at 0/n and n/n — the plain Wald width
        collapses to zero there, which would freeze the
        multisimulation on an answer after one unlucky batch.
        """
        if self.total == 0.0:
            return 0.0, 0.0
        if self.drawn == 0:
            return 0.0, 1.0
        half_width = 1.96 * self.total * _smoothed_sd(self.hits, self.drawn)
        return self.estimate(), half_width


def estimate_lineage(
    lineage: Lineage,
    samples: int,
    seed: Optional[int] = None,
    backend: str = "auto",
) -> Tuple[float, float]:
    """Karp–Luby estimate of an already-grounded lineage, plus a 95%
    half-width from the binomial CLT.

    The estimate is clamped into [0, 1]; the half-width is the honest
    (unclamped) sampler width.
    """
    if lineage.certainly_true:
        return 1.0, 0.0
    if lineage.is_false:
        return 0.0, 0.0
    sampler = KarpLubySampler(lineage, random.Random(seed), backend)
    if sampler.total == 0.0:
        return 0.0, 0.0
    sampler.extend(samples)
    estimate, half_width = sampler.interval()
    return clamp01(estimate), half_width


def _smoothed_sd(hits: int, drawn: int) -> float:
    """Agresti–Coull standard deviation of a binomial ratio.

    ``sqrt(r̃ (1 - r̃) / ñ)`` with ``r̃ = (hits + 2) / (drawn + 4)`` —
    never zero, so extreme counts keep an honest uncertainty."""
    adjusted = drawn + 4
    ratio = (hits + 2) / adjusted
    return math.sqrt(ratio * (1.0 - ratio) / adjusted)


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------


def _clause_probability(clause: Clause, weights: Dict[TupleKey, float]) -> float:
    result = 1.0
    for key, polarity in clause:
        weight = weights[key]
        result *= weight if polarity else (1.0 - weight)
    return result


def _clause_satisfied(
    clause: Clause,
    world: Dict[TupleKey, bool],
    weights: Dict[TupleKey, float],
    rng: random.Random,
) -> bool:
    """Check satisfaction, lazily sampling still-unset events."""
    for key, polarity in clause:
        value = world.get(key)
        if value is None:
            value = rng.random() < weights[key]
            world[key] = value
        if value != polarity:
            return False
    return True


def _bisect(cumulative: Sequence[float], target: float) -> int:
    lo, hi = 0, len(cumulative) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] < target:
            lo = mid + 1
        else:
            hi = mid
    return lo
