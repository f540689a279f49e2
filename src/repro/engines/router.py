"""The MystiQ-style router: cheapest correct engine, in order.

Section 1 of the paper describes MystiQ's strategy: test whether the
query has a PTIME plan; if yes run it, otherwise run a Monte Carlo
simulation — with execution times differing by one to two orders of
magnitude.  :class:`RouterEngine` reproduces that architecture and
extends it with a knowledge-compilation tier: unsafe queries whose
lineage compiles to a small circuit get *exact* answers before any
sampling happens.

Every read walks one ladder.  Safety is decided on the *residual*
query (head variables read as constants), a safe residual is answered
in bulk by the group-by safe plan or the lifted engine, and #P-hard
residuals fall through per answer — circuit compilation first, then
multisimulation Monte Carlo (or the exact oracle) for whatever did not
compile.  ``p(q)`` is the one answer ``()`` of the query with the empty
head, so :meth:`RouterEngine.probability` reads it off the same ladder
as :meth:`RouterEngine.answers`.  Every answer gets its own
:class:`RoutingDecision`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..compile.cache import CircuitCache
from ..core.union import AnyQuery, UnionQuery
from ..db.database import GroundTuple, ProbabilisticDatabase
from ..lineage.grounding import check_arities, ground_answer_lineages
from ..lineage.planner import GroundingPlanner
from ..lineage.wmc import exact_probability
from ..obs.metrics import MetricsRegistry
from .base import Answer, Engine, UnsafeQueryError, UnsupportedQueryError, rank_answers
from .compiled import CompiledEngine
from .lifted import LiftedEngine
from .lineage_engine import LineageEngine
from .montecarlo import MonteCarloEngine
from .safe_plan import SafePlanEngine, generic_residual, unsupported_reason

#: One routing outcome: (answer, p, engine, seconds, safe,
#: fallback reason, Monte Carlo half-width or None).
Row = Tuple[Optional[GroundTuple], float, str, float, bool, str, Optional[float]]

#: Cap on cached safety verdicts — like ``history_limit``, an
#: unbounded per-query cache is a slow leak under sustained serving
#: traffic with ever-fresh query shapes.  Verdict entries are tiny, so
#: the cap is generous; eviction is insertion-ordered (oldest first).
SAFETY_CACHE_LIMIT = 10_000


@dataclass
class RoutingDecision:
    """Record of how a query (or one of its answers) was answered.

    ``fallback_reason`` explains why the safer/cheaper engines above
    the chosen one were skipped — empty when the top-preference engine
    answered.  For answer-tuple queries ``answer`` holds the answer
    tuple; ``interval`` is the Monte Carlo 95% confidence half-width
    when sampling produced the number, else None.  When a grounding
    tier (compiled, Monte Carlo, or the exact oracle) answered,
    ``grounding_plan`` records the join order the grounding planner
    chose (see :meth:`~repro.lineage.planner.GroundingPlan.describe`);
    it stays None for the PTIME tiers, which never ground.
    """

    query: str
    engine: str
    probability: float
    seconds: float
    safe: bool
    fallback_reason: str = ""
    answer: Optional[GroundTuple] = None
    interval: Optional[float] = None
    grounding_plan: Optional[str] = None

    def describe(self) -> str:
        line = (
            f"{self.engine}: p={self.probability:.6f} "
            f"({self.seconds * 1e3:.1f} ms)"
        )
        if self.answer is not None:
            line = f"{self.answer}: " + line
        if self.interval is not None:
            line += f" ±{self.interval:.6f}"
        if self.grounding_plan:
            line += f" [plan: {self.grounding_plan}]"
        if self.fallback_reason:
            line += f" — {self.fallback_reason}"
        return line


class RouterEngine(Engine):
    """Route each query to the cheapest correct engine.

    Order of preference:

    1. the Equation-(3) safe plan (hierarchical, self-join-free CQs);
    2. the lifted engine (safe CQs with self-joins, and safe unions of
       conjunctive queries — inclusion–exclusion with cancellation);
    3. the compiled engine — exact answers for #P-hard queries whose
       lineage compiles into a circuit within ``compile_budget`` nodes;
    4. the fallback — Monte Carlo by default, or the exact lineage
       oracle when ``exact_fallback`` is set.

    All four tiers accept :class:`~repro.core.union.UnionQuery` inputs
    (the exact-PTIME union tier is the lifted engine; the lower tiers
    ride on the shared DNF lineage).  One admission rule —
    :meth:`_admit_exact` — decides the exact PTIME tier for
    :meth:`plan_query` and for the one ladder that :meth:`probability`
    and :meth:`answers` share, so the two cannot drift apart.

    Set ``compile_budget=None`` to disable tier 3 (the pre-compilation
    MystiQ architecture, kept for the paper-artifact benchmarks); a
    budget of ``0`` keeps the tier enabled with a zero-node allowance
    (every compilation fails fast and falls through, useful for
    measuring pure fallback behaviour).  Negative budgets are rejected.

    Serving knobs:

    * ``circuit_cache`` / ``safety_cache`` — inject shared caches so a
      long-lived owner (a :class:`~repro.serve.QuerySession`, or
      several routers over one corpus) pools compiled circuits and
      safety verdicts (the verdict cache is capped at
      :data:`SAFETY_CACHE_LIMIT` entries, oldest evicted first);
    * ``history_limit`` — :attr:`history` keeps one
      :class:`RoutingDecision` per answer; under sustained serving
      traffic an unbounded list is a memory leak, so it is a deque
      bounded to the most recent ``history_limit`` decisions (default
      10 000; ``None`` restores the unbounded behaviour);
    * ``metrics`` — a :class:`~repro.obs.MetricsRegistry` to record
      per-tier decision counters, per-tier latency histograms and
      labeled fallback-reason counters into (shared with the Monte
      Carlo tier); by default the router creates a private registry,
      readable as :attr:`metrics`.

    Raises:
        ValueError: negative ``compile_budget``, non-positive
            ``history_limit`` or ``mc_samples`` below 1.

    Example — route one safe and one #P-hard query::

        >>> from repro.core.parser import parse
        >>> from repro.db.database import ProbabilisticDatabase
        >>> db = ProbabilisticDatabase.from_dict({
        ...     "R": {(1,): 0.5}, "S": {(1, 2): 0.4}, "T": {(2,): 0.8}})
        >>> router = RouterEngine()
        >>> round(router.probability(parse("R(x), S(x,y)"), db), 6)
        0.2
        >>> router.history[-1].engine            # PTIME tier answered
        'safe-plan'
        >>> round(router.probability(parse("R(x), S(x,y), T(y)"), db), 6)
        0.16
        >>> router.history[-1].engine            # exact despite #P-hardness
        'compiled'
        >>> router.history[-1].fallback_reason
        'no safe plan (non-hierarchical: sg(x) and sg(y) cross, hence #P-hard (Theorem 1.4))'
        >>> round(router.probability(parse("R(x), S(x,y) | S(u,v), T(v)"), db), 6)
        0.36
        >>> router.history[-1].engine            # unsafe UCQ, still exact
        'compiled'
    """

    name = "router"

    def __init__(
        self,
        exact_fallback: bool = False,
        mc_samples: int = 20_000,
        mc_seed: Optional[int] = None,
        compile_budget: Optional[int] = 10_000,
        circuit_cache: Optional[CircuitCache] = None,
        safety_cache: Optional[Dict[AnyQuery, bool]] = None,
        history_limit: Optional[int] = 10_000,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if compile_budget is not None and compile_budget < 0:
            raise ValueError(
                f"compile_budget must be None or >= 0, got {compile_budget}"
            )
        if history_limit is not None and history_limit <= 0:
            raise ValueError(
                f"history_limit must be None or positive, got {history_limit}"
            )
        #: The router's telemetry registry (shared with the Monte Carlo
        #: tier; a :class:`~repro.serve.session.QuerySession` injects
        #: its own so one scrape covers the whole ladder).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: One grounding planner (plan cache + plan/candidate metrics)
        #: shared by every tier that grounds, so a plan built for the
        #: compiled tier is reused verbatim by the Monte Carlo fallback.
        self.grounding_planner = GroundingPlanner(metrics=self.metrics)
        self.safe_plan = SafePlanEngine()
        self.lifted = LiftedEngine()
        self.lineage = LineageEngine(planner=self.grounding_planner)
        self.compiled: Optional[CompiledEngine] = (
            CompiledEngine(
                mode="auto", max_nodes=compile_budget, cache=circuit_cache,
                planner=self.grounding_planner,
            )
            if compile_budget is not None
            else None
        )
        self.monte_carlo = MonteCarloEngine(
            samples=mc_samples, seed=mc_seed,
            metrics=self.metrics, planner=self.grounding_planner,
        )
        self.exact_fallback = exact_fallback
        self.history: Deque[RoutingDecision] = deque(maxlen=history_limit)
        self._safety_cache: Dict[AnyQuery, bool] = (
            safety_cache if safety_cache is not None else {}
        )
        self._metric_decisions = self.metrics.counter(
            "repro_router_decisions_total",
            "Routing decisions by the tier that answered",
            ("tier",),
        )
        self._metric_tier_seconds = self.metrics.histogram(
            "repro_router_tier_seconds",
            "Evaluation latency per routing decision, by answering tier",
            ("tier",),
        )
        self._metric_fallbacks = self.metrics.counter(
            "repro_router_fallbacks_total",
            "Tiers skipped on the way down the ladder, by reason",
            ("reason",),
        )

    def is_safe(self, query: AnyQuery) -> bool:
        """Cached safety decision for the routing choice.

        Delegates to the lifted engine's :meth:`prepare
        <repro.engines.lifted.LiftedEngine.prepare>` hook (its
        admission check *is* the safety decision), memoized in the
        possibly-injected ``safety_cache``.
        """
        cached = self._safety_cache.get(query)
        if cached is None:
            try:
                self.lifted.prepare(query)
                cached = True
            except (UnsafeQueryError, UnsupportedQueryError):
                cached = False
            while len(self._safety_cache) >= SAFETY_CACHE_LIMIT:
                self._safety_cache.pop(next(iter(self._safety_cache)))
            self._safety_cache[query] = cached
        return cached

    def _admit_exact(
        self, residual: AnyQuery
    ) -> Tuple[Optional[Engine], str, str]:
        """The one tier-admission rule for the exact PTIME ladder.

        Shared by :meth:`plan_query` and the one ladder
        (:meth:`_route_answers`), so both answer "which exact tier, and
        if none, precisely why" identically.

        * a union of CQs goes to the lifted tier when safe, else falls
          through (label ``unsafe_union``);
        * a self-join-free CQ goes to the safe plan when Equation (3)
          applies, else falls through with the precise cause from
          :func:`~repro.engines.safe_plan.unsupported_reason`
          (label ``non_hierarchical``);
        * a CQ with a self-join goes to the lifted tier when safe,
          else falls through (label ``unsafe_self_join``).

        Returns ``(engine, fallback_reason, metric_label)`` — engine is
        ``None`` exactly when no PTIME tier admits the residual, and
        only then are the reason/label non-empty.  The caller records
        the fallback metric (``plan_query`` merely *predicts* and must
        not count a fallback).
        """
        if isinstance(residual, UnionQuery):
            if self.is_safe(residual):
                return self.lifted, "", ""
            return (
                None,
                f"union of {len(residual.disjuncts)} CQs with no safe "
                f"decomposition (#P-hard by the UCQ dichotomy)",
                "unsafe_union",
            )
        if not residual.has_self_join():
            message = unsupported_reason(residual)
            if message is None:
                return self.safe_plan, "", ""
            return None, f"no safe plan ({message})", "non_hierarchical"
        if self.is_safe(residual):
            return self.lifted, "", ""
        return (
            None,
            "self-join without a safe decomposition (#P-hard by the dichotomy)",
            "unsafe_self_join",
        )

    def plan_query(self, query: AnyQuery) -> str:
        """The database-independent part of routing, decided once.

        Returns the engine name that will serve ``query`` when its
        admission is syntactic — :attr:`safe_plan` or :attr:`lifted` —
        or ``"unsafe"`` when the residual is #P-hard and the choice
        between the compiled tier and the fallback depends on the
        database (circuit budget).  This is the router's *prepare*
        hook: the serving layer calls it when a query enters the
        prepared-query cache, so per-request routing skips the
        classification entirely.  Mirrors the ladder's tier order
        exactly (safety of an answer-tuple query is safety of its
        generic residual): both go through :meth:`_admit_exact`.
        """
        engine, _reason, _label = self._admit_exact(generic_residual(query))
        return engine.name if engine is not None else "unsafe"

    def probability(
        self, query: AnyQuery, db: ProbabilisticDatabase
    ) -> float:
        """``p(q)``: the one answer ``()`` of the query with the empty
        head, read off the one ladder (0 when the ranking is empty).

        Records exactly one :class:`RoutingDecision` per call, with
        ``answer=None``.  A zero names the tier the ladder reached: the
        admitted PTIME tier, else compiled when enabled, else the
        fallback (a Monte Carlo zero with ``interval == 0.0``).
        """
        boolean = query.boolean()
        check_arities(boolean, db)
        start = time.perf_counter()
        rows, empty = self._route_answers(boolean, db, None)
        # The empty head has at most one answer, ``()``; ``rest`` is
        # (safe, reason, interval).
        _answer, value, engine, _seconds, *rest = rows[0] if rows else empty
        self._record(query, None, value, engine, time.perf_counter() - start, *rest)
        return value

    def answers(
        self,
        query: AnyQuery,
        db: ProbabilisticDatabase,
        k: Optional[int] = None,
    ) -> List[Answer]:
        """Ranked answer tuples, each routed to the cheapest engine.

        Appends one :class:`RoutingDecision` per returned answer (the
        recorded seconds are the per-tier cost amortized over the
        tier's answers).  A Boolean query ranks its one answer ``()``.
        """
        check_arities(query, db)
        rows, _empty = self._route_answers(query, db, k)
        ranked = rank_answers([(answer, p) for answer, p, *_ in rows], k)
        kept = {answer for answer, _ in ranked}
        for row in rows:
            if row[0] in kept:
                self._record(query, *row)
        return ranked

    # ------------------------------------------------------------------
    # Routing internals
    # ------------------------------------------------------------------

    def _record(self, query: AnyQuery, *row) -> None:
        """Count one decision (a :data:`Row`) and keep it in history."""
        answer, value, engine, seconds, safe, reason, interval = row
        self._metric_decisions.labels(engine).inc()
        self._metric_tier_seconds.labels(engine).observe(seconds)
        self.history.append(RoutingDecision(
            query=str(query), engine=engine, probability=value,
            seconds=seconds, safe=safe, fallback_reason=reason,
            answer=answer, interval=interval,
            grounding_plan=self._plan_note(engine, query),
        ))

    def _plan_note(self, engine_name: str, query: AnyQuery) -> Optional[str]:
        """The grounding plan behind a decision, when one exists.

        Only the grounding tiers plan; for the PTIME tiers (and for
        lineages served entirely from the serving layer's caches) the
        planner has no cached plan and this stays None.
        """
        if engine_name in (
            self.lineage.name,
            self.monte_carlo.name,
            self.compiled.name if self.compiled is not None else None,
        ):
            return self.grounding_planner.describe_cached(query)
        return None

    def _route_answers(
        self, query: AnyQuery, db: ProbabilisticDatabase,
        k: Optional[int],
    ) -> Tuple[List[Row], Row]:
        """The one routing ladder: a row per evaluated answer, and the
        row an empty ranking records (the tier reached, at ``p = 0``)."""
        engine, reason, label = self._admit_exact(generic_residual(query))
        if engine is not None:
            try:
                start = time.perf_counter()
                if engine is self.lifted:
                    results = self.lifted.answers(query, db, assume_safe=True)
                else:
                    results = engine.answers(query, db)
                elapsed = time.perf_counter() - start
                return (_tier_rows(results, engine.name, elapsed, True, ""),
                        (None, 0.0, engine.name, 0.0, True, "", None))
            except (UnsafeQueryError, UnsupportedQueryError):
                # pragma: no cover - admission said yes
                reason = f"{engine.name} tier failed after admission"
                label = "lifted_failed"
        self._metric_fallbacks.labels(label).inc()
        lineages = ground_answer_lineages(
            query, db, planner=self.grounding_planner
        )
        rows: List[Row] = []
        failed: Dict[GroundTuple, str] = {}
        if self.compiled is not None:
            start = time.perf_counter()
            values, failed = self.compiled.answers_from_lineages(lineages)
            elapsed = time.perf_counter() - start
            rows = _tier_rows(values, self.compiled.name, elapsed, False, reason)
            if not failed:
                return rows, (None, 0.0, self.compiled.name, 0.0, False, reason, None)
            self._metric_fallbacks.labels("compile_failed").inc(len(failed))
            lineages = {answer: lineages[answer] for answer in failed}
        start = time.perf_counter()
        if self.exact_fallback:
            fallback, zero_interval = self.lineage.name, None
            estimates = [
                (answer, exact_probability(lineage), None)
                for answer, lineage in lineages.items()
            ]
        else:
            fallback, zero_interval = self.monte_carlo.name, 0.0
            self.monte_carlo.answers_from_lineages(lineages, k)
            intervals = self.monte_carlo.last_intervals
            estimates = [(answer, *intervals[answer]) for answer in intervals]
        elapsed = (time.perf_counter() - start) / max(1, len(estimates))
        for answer, value, interval in estimates:
            failure = failed.get(answer)
            rows.append((
                answer, value, fallback, elapsed, False,
                f"{reason}; {failure}" if failure else reason, interval,
            ))
        return rows, (None, 0.0, fallback, 0.0, False, reason, zero_interval)


def _tier_rows(
    results: List[Answer], engine: str, elapsed: float, safe: bool, reason: str
) -> List[Row]:
    per_answer = elapsed / max(1, len(results))
    return [
        (answer, value, engine, per_answer, safe, reason, None)
        for answer, value in results
    ]
