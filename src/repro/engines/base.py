"""Common engine interface and error types."""

from __future__ import annotations

import abc
from typing import List, Optional, Tuple

from ..core.query import ConjunctiveQuery
from ..core.union import AnyQuery
from ..db.database import GroundTuple, ProbabilisticDatabase
from ..db.relation import canonical_row_key

#: One ranked answer: (answer tuple, probability).
Answer = Tuple[GroundTuple, float]


def clamp01(value: float) -> float:
    """Clamp a probability into [0, 1].

    Shared by every engine that reports estimates or float-summed
    exact values: the unbiased Monte Carlo estimators can overshoot on
    small sample counts, and deterministic circuit sums can drift by
    float epsilons on huge circuits.
    """
    return min(max(value, 0.0), 1.0)


class EngineError(Exception):
    """Base class for evaluation errors."""


class UnsupportedQueryError(EngineError):
    """The engine's preconditions exclude this query.

    The message names the *precise* cause — a union handed to a
    CQ-only engine, the self-joined relation symbol, the
    non-hierarchical variable pair, a blown compilation budget — so
    :class:`~repro.engines.router.RoutingDecision.fallback_reason` and
    serving-layer errors explain the routing instead of reporting a
    generic "unsupported query".  Engines whose admission is syntactic
    produce the message through :meth:`Engine.supports`.
    """


class UnsafeQueryError(EngineError):
    """The lifted engine found no PTIME decomposition.

    By the dichotomy theorem (Theorem 1.8) this means the query is
    #P-hard (assuming the search was exhaustive), and callers should
    fall back to the exact-but-exponential oracle or to Monte Carlo.
    """

    def __init__(self, message: str, query: Optional[AnyQuery] = None):
        super().__init__(message)
        self.query = query


class Engine(abc.ABC):
    """An evaluator mapping (query, database) to a probability."""

    #: Human-readable engine name, used by the router and benchmark reports.
    name: str = "engine"

    def probability(
        self, query: AnyQuery, db: ProbabilisticDatabase
    ) -> float:
        """The probability that ``query`` is true on ``db``.

        ``query`` is a :class:`~repro.core.query.ConjunctiveQuery` or a
        :class:`~repro.core.union.UnionQuery` (engines that only handle
        CQs say so through :meth:`supports`).  An answer-tuple query is
        read as its Boolean existential closure (the head does not add
        sub-goals).  ``p(q)`` is the one answer ``()`` of the query with
        the empty head, read off :meth:`answers` (0 when the ranking is
        empty); the safe-plan, lifted and brute-force engines override
        this with their core recursion.
        """
        ranking = self.answers(query.boolean(), db)
        return ranking[0][1] if ranking else 0.0

    def supports(self, query: AnyQuery) -> Optional[str]:
        """``None`` when the engine's *syntactic* preconditions admit
        ``query``; otherwise a precise human-readable reason.

        The reason names the exact cause — union vs self-join vs
        predicate vs hierarchy — and becomes the message of the
        :class:`UnsupportedQueryError` that :meth:`prepare` raises, and
        (via the router) the ``fallback_reason`` users see.  The
        default accepts everything.
        """
        return None

    def prepare(self, query: AnyQuery) -> None:
        """Database-independent admission check, run once per query.

        The serving layer (and the router's :meth:`plan_query
        <repro.engines.router.RouterEngine.plan_query>`) call this when
        a query is *prepared*: an engine whose preconditions are purely
        syntactic raises :class:`UnsupportedQueryError` /
        :class:`UnsafeQueryError` here, so routing is decided once
        instead of per evaluation.  The default raises exactly when
        :meth:`supports` reports a reason — engines whose admission
        depends on the database (e.g. the compiled engine's node
        budget) decide at evaluation time.
        """
        reason = self.supports(query)
        if reason is not None:
            raise UnsupportedQueryError(f"{reason}: {query}")

    @abc.abstractmethod
    def answers(
        self,
        query: AnyQuery,
        db: ProbabilisticDatabase,
        k: Optional[int] = None,
    ) -> List[Answer]:
        """The answer tuples of ``query``, ranked by probability.

        A Boolean query yields the single answer ``()`` with ``p(q)``.
        This body, for engines whose core is :meth:`probability`,
        enumerates candidate answers with one shared grounding pass,
        then evaluates each *residual* Boolean query (head variables
        bound to the answer's constants) through :meth:`probability`;
        engines override it with shared-work plans, and those that
        override :meth:`probability` call it for a Boolean query.

        Args:
            query: Boolean or answer-tuple conjunctive query (an
                answer-tuple query carries a head, e.g. parsed from
                ``"Q(x) :- R(x), S(x,y)"``).
            db: the database to evaluate over.
            k: keep only the ``k`` most probable answers (None = all;
                0 = none).

        Returns:
            ``(answer tuple, probability)`` pairs sorted by descending
            probability (ties broken by canonical tuple order); exact
            zeros are dropped.

        Raises:
            UnsupportedQueryError: the engine's preconditions exclude
                this query (e.g. a self-join handed to the safe-plan
                engine).
            UnsafeQueryError: the lifted engine found no PTIME
                decomposition — the query is #P-hard.
            ValueError: negative ``k``.

        Example (with the router as the engine)::

            >>> from repro.core.parser import parse
            >>> from repro.db.database import ProbabilisticDatabase
            >>> from repro.engines.router import RouterEngine
            >>> db = ProbabilisticDatabase.from_dict(
            ...     {"R": {(1,): 0.5, (2,): 0.9}, "S": {(1, 7): 0.4, (2, 7): 0.8}})
            >>> RouterEngine().answers(parse("Q(x) :- R(x), S(x,y)"), db, k=1)
            [((2,), 0.7200000000000001)]
        """
        if query.head is None:
            return rank_answers([((), self.probability(query, db))], k)
        from ..lineage.grounding import answer_tuples

        results = [
            (answer, self.probability(query.bind_head(answer), db))
            for answer in answer_tuples(query, db)
        ]
        return rank_answers(results, k)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def check_top_k(k: Optional[int]) -> None:
    """Reject a negative ``k``: a slice would drop answers silently."""
    if k is not None and k < 0:
        raise ValueError(f"k must be None or >= 0, got {k}")


def rank_answers(
    results: List[Answer], k: Optional[int] = None
) -> List[Answer]:
    """Sort by descending probability (ties by canonical tuple order),
    drop exact zeros, truncate to the top ``k`` (negative: ValueError)."""
    check_top_k(k)
    ranked = sorted(
        (item for item in results if item[1] > 0.0),
        key=lambda item: (-item[1], canonical_row_key(item[0])),
    )
    return ranked if k is None else ranked[:k]
