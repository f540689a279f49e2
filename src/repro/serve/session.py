"""Long-lived query sessions: the MystiQ *server* architecture.

MystiQ is a server, not a batch tool: users issue a stream of queries
against databases whose tuple probabilities drift as extraction
confidences are re-estimated.  The engines in :mod:`repro.engines`
re-derive everything — classification, safe plan, grounding, circuit —
on every call; a :class:`QuerySession` is the layer that amortizes that
work *across* calls:

* **Prepared queries.**  Parsing, safety classification and tier
  choice happen once per canonical query shape (variable renamings
  collapse onto one entry) and live in an LRU of
  :class:`PreparedQuery` records.

* **Precise invalidation.**  The database is observably mutable
  (:attr:`~repro.db.relation.Relation.version` /
  :attr:`~repro.db.relation.Relation.structure_version`); every
  prepared query tracks a version snapshot of exactly the relations it
  mentions.  Unchanged relations ⇒ the cached *result* is returned
  outright.  A probability-only change ⇒ the cached grounding and
  compiled circuit survive and only the weight vector is refreshed
  (one linear — or batched — circuit sweep, no re-grounding, no
  recompilation).  A structural change (new tuple, probability moved
  onto/off the {0, 1} boundary, new relation) ⇒ re-ground; the
  structural circuit cache still catches shape-identical lineages.

* **One read path.**  A Boolean query is served as the answer query
  with the empty head: its ranking is ``[((), p(q))]`` (empty when
  ``p(q) = 0``), so :meth:`QuerySession.evaluate_many` and
  :meth:`QuerySession.answers_many` share one prepared state, one
  refresh, one safe-tier call and one fallback.

* **Batched evaluation.**  Both batch calls group everything that lands
  on the same canonical compiled circuit — all answers of one query
  *and* same-shape queries across the batch — into one weight matrix
  and a single vectorized bottom-up sweep
  (:func:`~repro.compile.evaluate.reweighted_probabilities`).

The session reproduces the router's numbers exactly: every exact tier
agrees with a fresh :class:`~repro.engines.router.RouterEngine` to
float-epsilon, which the invalidation-matrix suite in
``tests/test_serving.py`` pins to 1e-9 across the query zoo.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass, fields
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..compile.evaluate import reweighted_probabilities
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..core.parser import parse
from ..core.query import ConjunctiveQuery, canonical_string
from ..core.union import AnyQuery, UnionQuery, disjuncts_of
from ..db.database import (
    GroundTuple,
    ProbabilisticDatabase,
    RelationVersion,
    TupleKey,
)
from ..db.relation import Probability, Value
from ..engines.base import Answer, UnsupportedQueryError, check_top_k, clamp01, rank_answers
from ..engines.compiled import Artifact, canonicalize_lineage
from ..engines.router import RouterEngine
from ..lineage.boolean import Lineage
from ..lineage.grounding import (
    check_arities,
    ground_answer_lineages,
    ground_lineage,  # unused here; perfbench/tracing.py patches it by name
)
from ..lineage.wmc import exact_probability

#: A query as accepted by the session API: parsed (CQ or union of
#: CQs) or source text.
QueryLike = Union[str, ConjunctiveQuery, UnionQuery]

#: Distinguishes "keyword not given" from every meaningful value
#: (``compile_budget=None`` and ``mc_seed=None`` are both legitimate).
_UNSET = object()

#: One compiled group of a prepared answer query: the shared artifact,
#: its canonical event order, and per-answer source events (original
#: tuple keys aligned with the canonical order, for weight refreshes).
CompiledGroup = Tuple[Artifact, List[TupleKey], List[Tuple[GroundTuple, List[TupleKey]]]]


@dataclass
class SessionStats:
    """Counters describing how the session served its traffic."""

    #: Distinct prepared queries created (prepared-cache misses).
    prepared: int = 0
    #: ``prepare()`` calls served from the prepared-query LRU.
    prepare_hits: int = 0
    #: Evaluations answered from the result cache (no relation the
    #: query mentions changed since the cached result).
    result_hits: int = 0
    #: Safe-tier (PTIME plan) re-evaluations.
    safe_evaluations: int = 0
    #: Probability-only refreshes: cached grounding + circuit reused,
    #: weights rebuilt from live marginals.
    reweights: int = 0
    #: Structural invalidations: grounding redone (circuits may still
    #: come from the structural cache).
    regrounds: int = 0
    #: Weight rows evaluated through batched circuit sweeps.
    batched_rows: int = 0
    #: Batched bottom-up sweeps performed.
    batched_sweeps: int = 0
    #: Evaluations that fell through to Monte Carlo / the exact oracle.
    fallbacks: int = 0

    def describe(self) -> str:
        return (
            f"prepared {self.prepared} "
            f"(+{self.prepare_hits} hits), "
            f"results: {self.result_hits} cached / "
            f"{self.safe_evaluations} safe / "
            f"{self.reweights} reweighted / "
            f"{self.regrounds} grounded, "
            f"{self.batched_rows} rows in {self.batched_sweeps} sweeps, "
            f"{self.fallbacks} fallbacks"
        )

    @classmethod
    def merged(cls, parts: Iterable["SessionStats"]) -> "SessionStats":
        """Field-wise sum — the pool's cross-worker aggregation.

        >>> a, b = SessionStats(prepared=2), SessionStats(prepared=1, reweights=4)
        >>> SessionStats.merged([a, b])
        SessionStats(prepared=3, prepare_hits=0, result_hits=0, safe_evaluations=0, reweights=4, regrounds=0, batched_rows=0, batched_sweeps=0, fallbacks=0)
        """
        total = cls()
        for part in parts:
            for spec in fields(cls):
                setattr(
                    total, spec.name,
                    getattr(total, spec.name) + getattr(part, spec.name),
                )
        return total


class PreparedQuery:
    """Per-shape cached state: classification, grounding, circuits.

    Built by :meth:`QuerySession.prepare`; callers treat it as opaque.
    ``tier`` is the database-independent routing choice (an engine
    name, or ``"unsafe"``).  For unsafe queries the grounded state
    below is valid as long as ``structure`` matches the database's
    structural snapshot; ``result`` is valid while the full snapshot
    ``result_versions`` matches.  A Boolean query is the answer query
    with the empty head, so its state is that of its one answer ``()``.
    """

    __slots__ = (
        "query", "shape", "relations", "tier", "plan",
        "result", "result_versions",
        "structure", "groups", "trivial", "leftovers",
    )

    def __init__(self, query: AnyQuery, shape: str, tier: str) -> None:
        self.query = query
        self.shape = shape
        self.relations: Tuple[str, ...] = query.relations
        self.tier = tier
        #: Grounding-plan description for unsafe tiers (None for PTIME
        #: tiers, which never ground).  Warmed at prepare time; the
        #: plan itself lives in the router's planner cache, keyed on
        #: structural versions, so reweights reuse it and structural
        #: changes replan transparently.
        self.plan: Optional[str] = None
        #: Cached full ranking + the snapshot it was computed under.
        self.result: Optional[List[Answer]] = None
        self.result_versions: Optional[Tuple[RelationVersion, ...]] = None
        #: Structural snapshot the grounded state below belongs to.
        self.structure: Optional[Tuple[Tuple[str, int], ...]] = None
        self.groups: Optional[List[CompiledGroup]] = None
        self.trivial: Optional[List[Answer]] = None
        self.leftovers: Optional[Dict[GroundTuple, Lineage]] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreparedQuery({self.shape!r}, tier={self.tier!r})"


class _ArtifactBatch:
    """Accumulates weight rows per compiled artifact, flushes in sweeps.

    Rows landing on the same artifact — the answers of one prepared
    query, or same-shape queries across a batch — are stacked into one
    matrix and evaluated by a single vectorized bottom-up pass.  Each
    row carries a sink callback that receives its (clamped) value.
    """

    def __init__(
        self, stats: SessionStats, stage_seconds=None, tracer: Tracer = NULL_TRACER
    ) -> None:
        self._stats = stats
        self._stage_seconds = stage_seconds
        self._tracer = tracer
        self._groups: Dict[int, Tuple[Artifact, List[TupleKey], list, list]] = {}

    def add(
        self,
        artifact: Artifact,
        events: List[TupleKey],
        row: List[float],
        sink: Callable[[float], None],
    ) -> None:
        group = self._groups.get(id(artifact))
        if group is None:
            group = self._groups[id(artifact)] = (artifact, events, [], [])
        group[2].append(row)
        group[3].append(sink)

    def flush(self) -> None:
        for artifact, events, rows, sinks in self._groups.values():
            with self._tracer.span("sweep", rows=len(rows)):
                start = time.perf_counter()
                values = reweighted_probabilities(artifact, events, rows)
                if self._stage_seconds is not None:
                    self._stage_seconds.labels("sweep").observe(
                        time.perf_counter() - start
                    )
            self._stats.batched_sweeps += 1
            self._stats.batched_rows += len(rows)
            for sink, value in zip(sinks, values):
                sink(clamp01(value))
        self._groups.clear()


class QuerySession:
    """A long-lived serving façade over a router and a mutable database.

    Args:
        db: the database to serve; mutate it freely (directly or via
            :meth:`update`) — the session notices through the version
            counters and invalidates exactly what the change affects.
        router: optionally a pre-configured
            :class:`~repro.engines.router.RouterEngine`; by default one
            is built from the remaining keyword arguments.  Passing
            both a router *and* router-config keywords is rejected —
            the keywords could not take effect and silently dropping
            them would mask the caller's intent.
        max_prepared: LRU capacity of the prepared-query cache.
        exact_fallback, mc_samples, mc_seed, compile_budget: forwarded
            to the default router.
        metrics: a :class:`~repro.obs.MetricsRegistry` shared with the
            router it builds (stage timers, per-tier counters, Monte
            Carlo gauges all land in one registry, exposed as
            :attr:`metrics`).  With a pre-built ``router`` the session
            adopts ``router.metrics`` instead; passing both is
            rejected.
        tracer: a :class:`~repro.obs.Tracer`; when enabled, every
            request becomes a span tree (stages as child spans).  The
            default shared disabled tracer costs ~an attribute check
            per stage.
        slow_query_threshold, slow_query_limit: queries whose direct
            evaluation takes longer than the threshold (seconds) are
            recorded in the bounded :attr:`slow_queries` log.

    The Monte Carlo tier is stochastic: cached MC results are served
    as long as the database is unchanged (a feature for serving — one
    workload, one answer), and refreshed by re-sampling after any
    change to the query's relations.

    Raises:
        ValueError: non-positive ``max_prepared``, or a pre-built
            router combined with router-config keywords.

    Example — evaluate, drift a probability, re-evaluate::

        >>> from repro.db.database import ProbabilisticDatabase
        >>> db = ProbabilisticDatabase.from_dict(
        ...     {"R": {(1,): 0.5}, "S": {(1, 2): 0.4}})
        >>> session = QuerySession(db)
        >>> round(session.evaluate("R(x), S(x,y)"), 6)  # cold: plan + ground
        0.2
        >>> session.update("R", (1,), 0.9)              # probability-only
        >>> round(session.evaluate("R(x), S(x,y)"), 6)  # re-weighted
        0.36
        >>> session.answers("Q(x) :- R(x), S(x,y)", k=1)
        [((1,), 0.36000000000000004)]
        >>> session.stats.result_hits, session.stats.regrounds
        (0, 0)
    """

    def __init__(
        self,
        db: ProbabilisticDatabase,
        router: Optional[RouterEngine] = None,
        *,
        max_prepared: int = 256,
        exact_fallback=_UNSET,
        mc_samples=_UNSET,
        mc_seed=_UNSET,
        compile_budget=_UNSET,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        slow_query_threshold: float = 0.25,
        slow_query_limit: int = 64,
    ) -> None:
        if max_prepared <= 0:
            raise ValueError(f"max_prepared must be positive, got {max_prepared}")
        if slow_query_limit <= 0:
            raise ValueError(
                f"slow_query_limit must be positive, got {slow_query_limit}"
            )
        router_config = {
            name: value
            for name, value in (
                ("exact_fallback", exact_fallback),
                ("mc_samples", mc_samples),
                ("mc_seed", mc_seed),
                ("compile_budget", compile_budget),
            )
            if value is not _UNSET
        }
        if router is not None and router_config:
            raise ValueError(
                f"pass either a pre-built router or router configuration, "
                f"not both: {sorted(router_config)} would be ignored"
            )
        if router is not None and metrics is not None:
            raise ValueError(
                "pass either a pre-built router or a metrics registry, not "
                "both: a pre-built router already carries its own registry "
                "(router.metrics), which the session adopts"
            )
        self.db = db
        #: One registry spans the whole ladder: the session's stage
        #: timers land next to the router's per-tier counters and the
        #: Monte Carlo gauges, so a single scrape sees every layer.
        if router is not None:
            self.metrics = router.metrics
            self.router = router
        else:
            self.metrics = (
                metrics if metrics is not None else MetricsRegistry()
            )
            self.router = RouterEngine(**router_config, metrics=self.metrics)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.max_prepared = max_prepared
        self._prepared: "OrderedDict[str, PreparedQuery]" = OrderedDict()
        self.stats = SessionStats()
        self.slow_query_threshold = slow_query_threshold
        #: Bounded log of the slowest-served queries: dicts with
        #: ``shape`` / ``kind`` / ``tier`` / ``seconds``, newest last.
        #: A query lands here when its direct evaluation time (shared
        #: sweep time excluded) exceeds ``slow_query_threshold``.
        self.slow_queries: Deque[dict] = deque(maxlen=slow_query_limit)
        self._stage_seconds = self.metrics.histogram(
            "repro_session_stage_seconds",
            "Serving-stage latency inside the session "
            "(prepare/ground/compile/reweight/sweep/safe/fallback)",
            ("stage",),
        )
        self._query_seconds = self.metrics.histogram(
            "repro_session_query_seconds",
            "Per-query direct evaluation time in the session "
            "(shared batched-sweep time excluded; see stage=sweep)",
            ("kind",),
        )
        self._results_total = self.metrics.counter(
            "repro_session_results_total",
            "Results served, by how the cache matrix resolved them",
            ("path",),
        )
        self._slow_total = self.metrics.counter(
            "repro_session_slow_queries_total",
            "Queries whose direct evaluation exceeded the slow-query "
            "threshold",
        )

    # ------------------------------------------------------------------
    # Preparation
    # ------------------------------------------------------------------

    def prepare(self, query: QueryLike) -> PreparedQuery:
        """Parse / classify / plan once, keyed by canonical shape.

        Accepts query text or a parsed query; isomorphic queries
        (variable renamings) collapse onto one prepared entry.

        For unsafe tiers the grounding plan is warmed here as well:
        each disjunct is planned against the current database and the
        plan lands in the router's shared planner cache, keyed on the
        relations' structural versions — so every later evaluation and
        every probability-only reweight reuses the plan, and only a
        structural change (insert, 0/1 boundary crossing) replans.

        Every call (cache hits included) first checks the query against
        the database (:func:`~repro.lineage.grounding.check_arities`): a
        relation created after the query was prepared may disagree
        with it.

        Raises:
            GroundingError: the query is not range-restricted, or an
                atom's arity differs from its stored relation's.
        """
        query = self._parse(query)
        check_arities(query, self.db)
        shape = canonical_string(query)
        prepared = self._prepared.get(shape)
        if prepared is not None:
            self._prepared.move_to_end(shape)
            self.stats.prepare_hits += 1
            return prepared
        with self.tracer.span("prepare", shape=shape):
            start = time.perf_counter()
            prepared = PreparedQuery(query, shape, self.router.plan_query(query))
            if prepared.tier == "unsafe":
                planner = self.router.grounding_planner
                for disjunct in disjuncts_of(query):
                    planner.plan_clause(disjunct, self.db)
                prepared.plan = planner.describe_cached(query)
            self._stage_seconds.labels("prepare").observe(
                time.perf_counter() - start
            )
        self._prepared[shape] = prepared
        self.stats.prepared += 1
        while len(self._prepared) > self.max_prepared:
            self._prepared.popitem(last=False)
        return prepared

    def clear(self) -> None:
        """Drop every cached plan, grounding and result."""
        self._prepared.clear()

    # ------------------------------------------------------------------
    # Database mutation sugar
    # ------------------------------------------------------------------

    def update(
        self, relation: str, row: Sequence[Value], probability: Probability
    ) -> None:
        """Insert or re-weight one tuple (``db.add`` passthrough).

        Invalidation is automatic either way; a probability-only
        change keeps every compiled circuit alive.
        """
        self.db.add(relation, tuple(row), probability)

    def set_sample_budget(self, samples: int) -> None:
        """Swap the Monte Carlo tier's per-query sample cap in place.

        The pool's overload mode calls this (through the ``configure``
        worker op) to degrade gracefully under load: fewer samples per
        unsafe query means wider intervals, not errors.  Uses
        :meth:`~repro.engines.montecarlo.MonteCarloEngine.reconfigured`
        so the seed, planner and metrics registry all survive the
        swap.  Cached results are untouched — only fresh Monte
        Carlo work runs at the new budget.
        """
        monte_carlo = self.router.monte_carlo
        if samples != monte_carlo.samples:
            self.router.monte_carlo = monte_carlo.reconfigured(
                samples=samples
            )

    # ------------------------------------------------------------------
    # Evaluation: one ranked-answer pipeline
    # ------------------------------------------------------------------

    def evaluate(self, query: QueryLike) -> float:
        """``p(q)`` by the cheapest correct path, cache-aware."""
        return self.evaluate_many([query])[0]

    def evaluate_many(self, queries: Sequence[QueryLike]) -> List[float]:
        """Evaluate a batch of Boolean queries.

        A Boolean query is served as the answer query with the empty
        head: ``p(q)`` is the probability of its one answer ``()``, or
        0 when the ranking is empty.  Answer-tuple queries are read as
        their Boolean existential closure (engine convention).
        Duplicate and same-shape queries collapse: every query whose
        canonical compiled circuit coincides contributes one weight row
        to a shared batched sweep.
        """
        rankings = self._rank_many(
            [self._parse(query).boolean() for query in queries], "evaluate"
        )
        return [ranking[0][1] if ranking else 0.0 for ranking in rankings]

    def answers(
        self, query: QueryLike, k: Optional[int] = None
    ) -> List[Answer]:
        """Ranked answer tuples, cache-aware."""
        return self.answers_many([query], k)[0]

    def answers_many(
        self, queries: Sequence[QueryLike], k: Optional[int] = None
    ) -> List[List[Answer]]:
        """Ranked answers for a batch of queries.

        All per-answer lineages landing on the same canonical circuit
        — within one query and across same-shape queries — share one
        batched sweep.  The *full* ranking is cached; ``k`` truncates
        per call, so changing ``k`` against an unchanged database is a
        pure cache hit.  A Boolean query ranks its one answer ``()``.
        A negative ``k`` raises ValueError before any work.
        """
        check_top_k(k)
        # Always a fresh list: the full ranking also lives in the result
        # cache, and callers are free to mutate theirs.
        return [
            list(ranked) if k is None else ranked[:k]
            for ranked in self._rank_many(queries, "answers")
        ]

    def _rank_many(
        self, queries: Sequence[QueryLike], kind: str
    ) -> List[List[Answer]]:
        """The full cached ranking of every query, in order; ``kind``
        names the spans and the per-query timer."""
        unique: List[PreparedQuery] = []
        slot_of: Dict[str, int] = {}
        slots: List[int] = []
        for query in queries:
            prepared = self.prepare(query)
            if prepared.shape not in slot_of:
                slot_of[prepared.shape] = len(unique)
                unique.append(prepared)
            slots.append(slot_of[prepared.shape])
        results: List[Optional[List[Answer]]] = [None] * len(unique)
        batch = _ArtifactBatch(self.stats, self._stage_seconds, self.tracer)
        finals: List[Tuple[int, PreparedQuery, Tuple[RelationVersion, ...], List[Answer]]] = []
        for index, prepared in enumerate(unique):
            with self.tracer.span(
                kind, shape=prepared.shape, tier=prepared.tier
            ):
                start = time.perf_counter()
                ranked = self._rank(prepared, batch, finals, index)
                self._observe_query(kind, prepared, time.perf_counter() - start)
            if ranked is not None:
                results[index] = ranked
        batch.flush()
        for index, prepared, snapshot, collected in finals:
            ranked = rank_answers(collected)
            self._store(prepared, snapshot, ranked)
            results[index] = ranked
        return [results[slot] for slot in slots]

    def _rank(
        self,
        prepared: PreparedQuery,
        batch: _ArtifactBatch,
        finals: list,
        index: int,
    ) -> Optional[List[Answer]]:
        """One query; returns the cached/safe ranking, or None when
        compiled rows were deferred (``finals`` completes it)."""
        snapshot = self.db.version_snapshot(prepared.relations)
        if prepared.result_versions == snapshot:
            self.stats.result_hits += 1
            self._results_total.labels("cached").inc()
            return prepared.result
        if prepared.tier != "unsafe":
            start = time.perf_counter()
            if prepared.tier == self.router.safe_plan.name:
                ranked = self.router.safe_plan.answers(prepared.query, self.db)
            else:
                ranked = self.router.lifted.answers(
                    prepared.query, self.db, assume_safe=True
                )
            self._stage_seconds.labels("safe").observe(
                time.perf_counter() - start
            )
            self.stats.safe_evaluations += 1
            self._results_total.labels("safe").inc()
            self._store(prepared, snapshot, ranked)
            return ranked
        self._refresh_answers(prepared, snapshot)
        collected: List[Answer] = list(prepared.trivial)
        for artifact, events, members in prepared.groups:
            for answer, sources in members:
                def sink(value: float, answer: GroundTuple = answer) -> None:
                    collected.append((answer, value))

                batch.add(artifact, events, self._weight_row(sources), sink)
        if prepared.leftovers:
            collected.extend(self._fallback_answers(prepared.leftovers))
        finals.append((index, prepared, snapshot, collected))
        return None

    def _refresh_answers(
        self, prepared: PreparedQuery, snapshot: Tuple[RelationVersion, ...]
    ) -> None:
        """Grounding and circuits, rebuilt only on structure change."""
        structure = _structure_of(snapshot)
        if prepared.structure == structure:
            self.stats.reweights += 1
            self._results_total.labels("reweighted").inc()
            return
        trivial: List[Answer] = []
        leftovers: Dict[GroundTuple, Lineage] = {}
        groups: Dict[int, CompiledGroup] = {}
        positions: Dict[int, Dict[TupleKey, int]] = {}
        with self.tracer.span("ground", shape=prepared.shape):
            start = time.perf_counter()
            lineages = ground_answer_lineages(
                prepared.query, self.db,
                planner=self.router.grounding_planner,
            )
            prepared.plan = self.router.grounding_planner.describe_cached(
                prepared.query
            )
            self._stage_seconds.labels("ground").observe(
                time.perf_counter() - start
            )
        for answer, lineage in lineages.items():
            if lineage.certainly_true:
                trivial.append((answer, 1.0))
                continue
            if lineage.is_false:
                continue
            if self.router.compiled is None:
                leftovers[answer] = lineage
                continue
            with self.tracer.span("compile", shape=prepared.shape):
                start = time.perf_counter()
                canonical, weights, renaming = canonicalize_lineage(lineage)
                try:
                    artifact = self.router.compiled.compile_lineage(canonical)
                except UnsupportedQueryError:
                    artifact = None
                self._stage_seconds.labels("compile").observe(
                    time.perf_counter() - start
                )
            if artifact is None:
                leftovers[answer] = lineage
                continue
            key = id(artifact)
            group = groups.get(key)
            if group is None:
                group = groups[key] = (artifact, sorted(weights), [])
                positions[key] = {
                    event: index for index, event in enumerate(group[1])
                }
            # One pass over the renaming, no inverted intermediate dict.
            position = positions[key]
            sources: List[TupleKey] = [None] * len(group[1])
            for original, canonical_event in renaming.items():
                sources[position[canonical_event]] = original
            group[2].append((answer, sources))
        prepared.trivial = trivial
        prepared.groups = list(groups.values())
        prepared.leftovers = leftovers
        prepared.structure = structure
        self.stats.regrounds += 1
        self._results_total.labels("grounded").inc()

    def _fallback_answers(
        self, leftovers: Dict[GroundTuple, Lineage]
    ) -> List[Answer]:
        """Router tier-4 for answers that did not compile."""
        fresh = {
            answer: self._fresh_lineage(lineage)
            for answer, lineage in leftovers.items()
        }
        self.stats.fallbacks += 1
        self._results_total.labels("fallback").inc()
        with self.tracer.span("fallback", answers=len(fresh)):
            start = time.perf_counter()
            if self.router.exact_fallback:
                ranked = [
                    (answer, float(exact_probability(lineage)))
                    for answer, lineage in fresh.items()
                ]
            else:
                ranked = self.router.monte_carlo.answers_from_lineages(fresh)
            self._stage_seconds.labels("fallback").observe(
                time.perf_counter() - start
            )
        return ranked

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------

    def _observe_query(
        self, kind: str, prepared: PreparedQuery, seconds: float
    ) -> None:
        """Record one query's direct evaluation time; log it if slow."""
        self._query_seconds.labels(kind).observe(seconds)
        if seconds > self.slow_query_threshold:
            self._slow_total.inc()
            self.slow_queries.append({
                "shape": prepared.shape,
                "kind": kind,
                "tier": prepared.tier,
                "seconds": seconds,
            })

    def _parse(self, query: QueryLike) -> AnyQuery:
        if isinstance(query, str):
            return parse(query)
        if not isinstance(query, (ConjunctiveQuery, UnionQuery)):
            raise TypeError(
                f"expected query text, ConjunctiveQuery or UnionQuery, "
                f"got {query!r}"
            )
        return query

    def _store(
        self,
        prepared: PreparedQuery,
        snapshot: Tuple[RelationVersion, ...],
        value,
    ) -> None:
        prepared.result = value
        prepared.result_versions = snapshot

    def _weight_row(self, sources: Sequence[TupleKey]) -> List[float]:
        """Live marginals for a circuit's events, in canonical order."""
        start = time.perf_counter()
        probability = self.db.probability
        row = [float(probability(name, row)) for name, row in sources]
        self._stage_seconds.labels("reweight").observe(
            time.perf_counter() - start
        )
        return row

    def _fresh_lineage(self, lineage: Lineage) -> Lineage:
        """The cached clause structure with live marginals."""
        weights = {
            key: float(self.db.probability(key[0], key[1]))
            for key in lineage.events()
        }
        return Lineage(
            lineage.clauses, weights, certainly_true=lineage.certainly_true
        )


def _structure_of(
    snapshot: Tuple[RelationVersion, ...]
) -> Tuple[Tuple[str, int], ...]:
    """The structural part of a version snapshot."""
    return tuple((name, structure) for name, structure, _version in snapshot)
