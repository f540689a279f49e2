"""The MystiQ-style router: cheapest correct engine, in order.

Section 1 of the paper describes MystiQ's strategy: test whether the
query has a PTIME plan; if yes run it, otherwise run a Monte Carlo
simulation — with execution times differing by one to two orders of
magnitude.  :class:`RouterEngine` reproduces that architecture and
extends it with a knowledge-compilation tier: unsafe queries whose
lineage compiles to a small circuit get *exact* answers before any
sampling happens.

Answer-tuple queries go through :meth:`RouterEngine.answers`: safety is
decided on the *residual* query (head variables read as constants), a
safe residual is answered in bulk by the group-by safe plan or the
lifted engine, and #P-hard residuals fall through per answer — circuit
compilation first, then multisimulation Monte Carlo (or the exact
oracle) for whatever did not compile.  Every answer gets its own
:class:`RoutingDecision`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..compile.cache import CircuitCache
from ..core.union import AnyQuery, UnionQuery
from ..db.database import GroundTuple, ProbabilisticDatabase
from ..lineage.boolean import Lineage
from ..lineage.grounding import check_arities, ground_answer_lineages
from ..lineage.planner import GroundingPlanner
from ..lineage.wmc import exact_probability
from ..obs.metrics import MetricsRegistry
from .base import Answer, Engine, UnsafeQueryError, UnsupportedQueryError, clamp01, rank_answers
from .compiled import CompiledEngine
from .lifted import LiftedEngine
from .lineage_engine import LineageEngine
from .montecarlo import MonteCarloEngine
from .safe_plan import SafePlanEngine, generic_residual, unsupported_reason

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
    :meth:`plan_query`, :meth:`probability` and :meth:`answers` alike,
    so the three paths cannot drift apart.

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
        ValueError: negative ``compile_budget`` or non-positive
            ``history_limit``.

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
        mc_backend: str = "auto",
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
            samples=mc_samples, seed=mc_seed, backend=mc_backend,
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

        Shared by :meth:`plan_query`, :meth:`_route` and
        :meth:`_route_answers` (formerly three near-identical blocks
        that could — and did — drift in wording), so every path answers
        "which exact tier, and if none, precisely why" identically.

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
        classification entirely.  Mirrors :meth:`probability` /
        :meth:`answers` tier order exactly (safety of an answer-tuple
        query is safety of its generic residual) because all three go
        through :meth:`_admit_exact`.
        """
        engine, _reason, _label = self._admit_exact(generic_residual(query))
        return engine.name if engine is not None else "unsafe"

    def probability(
        self, query: AnyQuery, db: ProbabilisticDatabase
    ) -> float:
        check_arities(query, db)
        start = time.perf_counter()
        engine, value, safe, reason, interval = self._route(query, db)
        elapsed = time.perf_counter() - start
        self._metric_decisions.labels(engine).inc()
        self._metric_tier_seconds.labels(engine).observe(elapsed)
        self.history.append(
            RoutingDecision(
                query=str(query),
                engine=engine,
                probability=value,
                seconds=elapsed,
                safe=safe,
                fallback_reason=reason,
                interval=interval,
                grounding_plan=self._plan_note(engine, query),
            )
        )
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
        tier's answers).
        """
        if query.head is None:
            value = self.probability(query, db)
            self.history[-1].answer = ()
            return rank_answers([((), value)], k)
        check_arities(query, db)
        rows = self._route_answers(query, db, k)
        ranked = rank_answers([(answer, p) for answer, p, *_ in rows], k)
        kept = {answer for answer, _ in ranked}
        for answer, p, engine, seconds, safe, reason, interval in rows:
            if answer not in kept:
                continue
            self._metric_decisions.labels(engine).inc()
            self._metric_tier_seconds.labels(engine).observe(seconds)
            self.history.append(
                RoutingDecision(
                    query=str(query),
                    engine=engine,
                    probability=p,
                    seconds=seconds,
                    safe=safe,
                    fallback_reason=reason,
                    answer=answer,
                    interval=interval,
                    grounding_plan=self._plan_note(engine, query),
                )
            )
        return ranked

    # ------------------------------------------------------------------
    # Routing internals
    # ------------------------------------------------------------------

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

    def _route(
        self, query: AnyQuery, db: ProbabilisticDatabase
    ) -> Tuple[str, float, bool, str, Optional[float]]:
        reasons = []
        engine, reason, label = self._admit_exact(query.boolean())
        if engine is not None:
            try:
                return (
                    engine.name, engine.probability(query, db), True, "", None,
                )
            except (UnsafeQueryError, UnsupportedQueryError):
                # pragma: no cover - admission said yes
                reasons.append(f"{engine.name} tier failed after admission")
                self._metric_fallbacks.labels("lifted_failed").inc()
        else:
            reasons.append(reason)
            self._metric_fallbacks.labels(label).inc()
        if self.compiled is not None:
            try:
                value = self.compiled.probability(query, db)
                return self.compiled.name, value, False, "; ".join(reasons), None
            except UnsupportedQueryError as error:
                reasons.append(str(error))
                self._metric_fallbacks.labels("compile_failed").inc()
        if self.exact_fallback:
            return (
                self.lineage.name,
                self.lineage.probability(query, db),
                False,
                "; ".join(reasons),
                None,
            )
        estimate, half_width = self.monte_carlo.estimate_with_interval(query, db)
        return (
            self.monte_carlo.name,
            clamp01(estimate),
            False,
            "; ".join(reasons),
            half_width,
        )

    def _route_answers(
        self, query: AnyQuery, db: ProbabilisticDatabase,
        k: Optional[int],
    ) -> List[Tuple]:
        """(answer, p, engine, seconds, safe, reason, interval) rows."""
        reasons: List[str] = []
        engine, reason, label = self._admit_exact(generic_residual(query))
        if engine is not None:
            try:
                start = time.perf_counter()
                if engine is self.lifted:
                    results = self.lifted.answers(query, db, assume_safe=True)
                else:
                    results = engine.answers(query, db)
                return _tier_rows(
                    results, engine.name,
                    time.perf_counter() - start, True, "",
                )
            except (UnsafeQueryError, UnsupportedQueryError):
                # pragma: no cover - admission said yes
                reasons.append(f"{engine.name} tier failed after admission")
                self._metric_fallbacks.labels("lifted_failed").inc()
        else:
            reasons.append(reason)
            self._metric_fallbacks.labels(label).inc()
        reason = "; ".join(reasons)
        lineages = ground_answer_lineages(
            query, db, planner=self.grounding_planner
        )
        rows: List[Tuple] = []
        leftovers: Dict[GroundTuple, Lineage] = {}
        if self.compiled is not None:
            compile_reasons: Dict[GroundTuple, str] = {}
            for answer, lineage in lineages.items():
                start = time.perf_counter()
                try:
                    value = self.compiled.answer_probability(lineage)
                except UnsupportedQueryError as error:
                    leftovers[answer] = lineage
                    compile_reasons[answer] = str(error)
                    self._metric_fallbacks.labels("compile_failed").inc()
                    continue
                rows.append((
                    answer, value, self.compiled.name,
                    time.perf_counter() - start, False, reason, None,
                ))
        else:
            leftovers = dict(lineages)
            compile_reasons = {}
        if not leftovers:
            return rows
        start = time.perf_counter()
        if self.exact_fallback:
            fallback = [
                (answer, exact_probability(lineage), self.lineage.name, None)
                for answer, lineage in leftovers.items()
            ]
        else:
            estimates = self.monte_carlo.answers_from_lineages(leftovers, k)
            fallback = [
                (
                    answer, value, self.monte_carlo.name,
                    self.monte_carlo.last_intervals[answer][1],
                )
                for answer, value in estimates
            ]
        elapsed = (time.perf_counter() - start) / max(1, len(fallback))
        for answer, value, engine, interval in fallback:
            answer_reason = reason
            extra = compile_reasons.get(answer)
            if extra:
                answer_reason = f"{reason}; {extra}" if reason else extra
            rows.append((
                answer, value, engine, elapsed, False, answer_reason, interval,
            ))
        return rows


def _tier_rows(
    results: List[Answer], engine: str, elapsed: float, safe: bool, reason: str
) -> List[Tuple]:
    per_answer = elapsed / max(1, len(results))
    return [
        (answer, value, engine, per_answer, safe, reason, None)
        for answer, value in results
    ]
