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

Both estimators sample whole batches with numpy: worlds are columns
of an ``(n_events, batch)`` bit matrix over the
:class:`~repro.lineage.packed.PackedLineage` structure, drawn by
comparing raw generator words against integer thresholds, and every
clause of every sample is evaluated on bit-packed worlds in one padded
gather + fold (``benchmarks/bench_sampling.py`` measures the rate).
The scalar loops they replaced live on in
``tests/test_sampling_parity.py`` as the reference the batched kernels
are checked against.

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
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..core.union import AnyQuery
from ..db.database import GroundTuple, ProbabilisticDatabase
from ..lineage.boolean import Lineage
from ..lineage.grounding import ground_answer_lineages
from ..lineage.packed import PackedLineage
from ..lineage.planner import GroundingPlanner
from ..obs.metrics import NULL_REGISTRY, MetricsRegistry
from .base import Answer, Engine, clamp01, rank_answers

#: The estimator's label on ``repro_mc_samples_total``.
METHOD = "karp-luby"

#: Cap on elements per numpy intermediate (~bytes, matrices are bool):
#: keeps the world/satisfaction matrices cache-friendly and bounds
#: memory for huge sample requests.
_BATCH_ELEMENTS = 1 << 22


def _require_samples(samples: int) -> None:
    """Reject a budget that draws nothing: its estimate is no estimate."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")


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
        metrics: Optional[MetricsRegistry] = None,
        planner: Optional[GroundingPlanner] = None,
    ) -> None:
        _require_samples(samples)
        self.samples = samples
        self.seed = seed
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
            "Sample batch sizes handed to the sampler",
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
        keeps *every* constructor argument — seed, planner and the
        metrics registry — so per-call overrides (the serving
        layer's ``samples=`` escape hatch) do not silently reset
        anything else.
        """
        return type(self)(
            samples=self.samples if samples is None else samples,
            seed=self.seed,
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
            lineage, self.samples, self.seed
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
                    lineage, random.Random(rng.randrange(2**31))
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
    lineage: Lineage, samples: int, rng: random.Random
) -> float:
    """Fraction of sampled worlds satisfying the DNF.

    All worlds of a batch at once: the OR of every clause's packed
    satisfied bits marks the worlds where the DNF holds.
    """
    _require_samples(samples)
    if lineage.certainly_true:
        return 1.0  # no clause to satisfy, yet every world does
    packed = PackedLineage.of(lineage)
    if packed.n_clauses == 0:
        return 0.0
    nprng = np.random.default_rng(rng.randrange(2**63))
    hits = 0
    for batch in _batches(samples, packed.batch_cost):
        worlds = packed.sample_worlds(nprng, batch)
        some_clause = np.bitwise_or.reduce(
            packed.satisfied_bits(worlds), axis=0
        )
        hits += int(np.unpackbits(some_clause, count=batch).sum())
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

    :meth:`extend` is fully batched: one CDF ``searchsorted`` over the
    packed clause distribution picks all trial clauses, one block of
    raw generator words draws all worlds, one vectorized write forces
    each chosen clause true, and coverage for the whole batch is one
    pass over bit-packed worlds (padded literal fold, then a prefix OR
    down the clauses).
    """

    __slots__ = ("hits", "drawn", "total", "packed", "_np_rng")

    def __init__(self, lineage: Lineage, rng: random.Random) -> None:
        self.hits = 0
        self.drawn = 0
        self.packed = PackedLineage.of(lineage)
        self.total = self.packed.total
        # Derived from the per-answer rng so one seed fixes the run.
        self._np_rng = np.random.default_rng(rng.randrange(2**63))

    def extend(self, samples: int) -> None:
        """Draw ``samples`` more Karp–Luby trials."""
        if self.total > 0.0:
            packed = self.packed
            for batch in _batches(samples, packed.batch_cost):
                chosen, worlds = self._draw_batch(batch)
                self.hits += packed.coverage_hits(worlds, chosen)
        self.drawn += samples

    def _draw_batch(self, batch: int):
        """One batch of (chosen clause ids, forced world matrix).

        Sampling every event up front and then overwriting the chosen
        clause's literals is distributionally identical to drawing each
        event lazily, one trial at a time: either way, events outside
        the chosen clause are independent Bernoulli draws.
        """
        packed = self.packed
        chosen = packed.sample_clauses(self._np_rng, batch)
        worlds = packed.sample_worlds(self._np_rng, batch)
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
) -> Tuple[float, float]:
    """Karp–Luby estimate of an already-grounded lineage, plus a 95%
    half-width from the binomial CLT.

    The estimate is clamped into [0, 1]; the half-width is the honest
    (unclamped) sampler width.
    """
    _require_samples(samples)
    if lineage.certainly_true:
        return 1.0, 0.0
    if lineage.is_false:
        return 0.0, 0.0
    sampler = KarpLubySampler(lineage, random.Random(seed))
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

