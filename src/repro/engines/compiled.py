"""Exact evaluation through knowledge compilation.

The second exact backend next to :class:`LineageEngine`: ground the
query to its lineage DNF, compile the DNF into a structured circuit
(OBDD or d-DNNF), evaluate in time linear in circuit size.  The
compiled artifact is cached on the lineage's clause structure, so
repeated or re-weighted queries skip compilation entirely — the
capability the recursive WMC oracle fundamentally lacks.

Modes:

* ``obdd`` — bottom-up Apply compilation under a variable-ordering
  heuristic (see :mod:`repro.compile.ordering`);
* ``dnnf`` — top-down decomposition mirroring the WMC oracle's trace;
* ``auto`` — try the OBDD first (smaller, canonical, cheapest to
  re-evaluate), fall back to d-DNNF when the OBDD blows the node
  budget.

Every read goes through :meth:`CompiledEngine.answers_from_lineages`,
which compiles canonical lineages with no query hint, as serving does.
With ``max_nodes`` set, a lineage that does not compile is reported
with its reason, which the router reads as "fall through to Monte
Carlo".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple, Union

from ..compile.cache import CircuitCache
from ..compile.circuit import BudgetExceeded
from ..compile.dnnf import CompiledDNNF, compile_dnnf
from ..compile.evaluate import reweighted_probabilities
from ..compile.obdd import CompiledOBDD, compile_obdd
from ..core.query import ConjunctiveQuery
from ..core.union import AnyQuery
from ..db.database import GroundTuple, ProbabilisticDatabase, TupleKey
from ..db.relation import canonical_row_key
from ..lineage.boolean import Lineage
from ..lineage.grounding import ground_answer_lineages
from ..lineage.planner import GroundingPlanner
from .base import Answer, Engine, UnsupportedQueryError, clamp01, rank_answers

MODES = ("obdd", "dnnf", "auto")

Artifact = Union[CompiledOBDD, CompiledDNNF]


@dataclass
class CompilationReport:
    """What the last compilation produced (CLI and benchmark output)."""

    mode: str
    ordering: str
    size: int
    variables: int
    clauses: int
    cached: bool

    def describe(self) -> str:
        origin = "cache" if self.cached else "fresh"
        ordering = f", ordering={self.ordering}" if self.ordering else ""
        return (
            f"{self.mode} circuit: {self.size} nodes over "
            f"{self.variables} events / {self.clauses} clauses "
            f"({origin}{ordering})"
        )


class CompiledEngine(Engine):
    """Ground to lineage, compile to a circuit, evaluate linearly."""

    name = "compiled"

    def __init__(
        self,
        mode: str = "auto",
        ordering: str = "auto",
        max_nodes: Optional[int] = None,
        cache: Optional[CircuitCache] = None,
        planner: Optional[GroundingPlanner] = None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        self.mode = mode
        self.ordering = ordering
        self.max_nodes = max_nodes
        self.cache = cache if cache is not None else CircuitCache()
        self.planner = planner
        self.last_report: Optional[CompilationReport] = None

    def answers(
        self,
        query: AnyQuery,
        db: ProbabilisticDatabase,
        k: Optional[int] = None,
    ) -> List[Answer]:
        """Per-answer lineages through :meth:`answers_from_lineages`;
        raises :class:`UnsupportedQueryError` when one did not compile
        within ``max_nodes``."""
        values, failed = self.answers_from_lineages(
            ground_answer_lineages(query, db, planner=self.planner)
        )
        if failed:
            raise UnsupportedQueryError(next(iter(failed.values())))
        return rank_answers(values, k)

    def answers_from_lineages(
        self, lineages: Dict[GroundTuple, Lineage]
    ) -> Tuple[List[Answer], Dict[GroundTuple, str]]:
        """Exact values of already-grounded per-answer lineages.

        The per-answer lineages of one query are instances of the same
        clause *shape* — only the tuple events differ.  Each lineage is
        renamed onto canonical integer events before compilation, so
        the structural cache key collides across answers and the
        circuit is compiled once.  Answers sharing a circuit are then
        re-weighted together: their canonical marginals become the rows
        of one weight matrix and a single batched bottom-up sweep
        (``probability_batch``) evaluates every answer at once, instead
        of one linear pass per answer.

        Returns the ``(answer, probability)`` pairs, unranked and with
        zeros kept, and every answer whose lineage did not compile
        within ``max_nodes``, mapped to the reason.
        """
        results: List[Answer] = []
        failed: Dict[GroundTuple, str] = {}
        # cache key -> (artifact, canonical event order, [(answer, weights)])
        groups: Dict[Hashable, Tuple[Artifact, List, List]] = {}
        for answer, lineage in lineages.items():
            if lineage.certainly_true:
                results.append((answer, 1.0))
                continue
            if lineage.is_false:
                results.append((answer, 0.0))
                continue
            canonical, weights, _renaming = canonicalize_lineage(lineage)
            key = CircuitCache.key_for(canonical, self.mode, self.ordering)
            entry = groups.get(key)
            if entry is None:
                try:
                    artifact = self.compile_lineage(canonical)
                except UnsupportedQueryError as error:
                    failed[answer] = str(error)
                    continue
                # Same clause set => same canonical event set, so the
                # first member's event order serves the whole group.
                entry = groups[key] = (artifact, sorted(weights), [])
            entry[2].append((answer, weights))
        for artifact, events, members in groups.values():
            rows = [[w[event] for event in events] for _answer, w in members]
            values = reweighted_probabilities(artifact, events, rows)
            for (answer, _w), value in zip(members, values):
                results.append((answer, clamp01(value)))
        return results, failed

    def compile_lineage(
        self, lineage: Lineage, query: Optional[ConjunctiveQuery] = None
    ) -> Artifact:
        """The compiled artifact for a lineage, via the structural cache."""
        key = CircuitCache.key_for(lineage, self.mode, self.ordering)
        artifact = self.cache.get(key)
        cached = artifact is not None
        if not cached:
            artifact = self._compile(lineage, query)
            self.cache.put(key, artifact)
        self.last_report = CompilationReport(
            mode="obdd" if isinstance(artifact, CompiledOBDD) else "dnnf",
            ordering=getattr(artifact, "ordering", ""),
            size=artifact.size,
            variables=lineage.variable_count,
            clauses=lineage.clause_count(),
            cached=cached,
        )
        return artifact

    def _compile(
        self, lineage: Lineage, query: Optional[ConjunctiveQuery]
    ) -> Artifact:
        try:
            if self.mode == "obdd":
                return compile_obdd(
                    lineage, self.ordering, query, self.max_nodes
                )
            if self.mode == "dnnf":
                return compile_dnnf(lineage, query, self.max_nodes)
            try:
                return compile_obdd(
                    lineage, self.ordering, query, self.max_nodes
                )
            except BudgetExceeded:
                return compile_dnnf(lineage, query, self.max_nodes)
        except (BudgetExceeded, RecursionError) as error:
            raise UnsupportedQueryError(
                f"lineage did not compile within budget "
                f"({lineage.variable_count} events, "
                f"{lineage.clause_count()} clauses): {error}"
            ) from error


def canonicalize_lineage(
    lineage: Lineage,
) -> Tuple[Lineage, Dict[TupleKey, float], Dict[TupleKey, TupleKey]]:
    """Rename tuple events onto canonical integer ids.

    Events are ordered by an iteratively-refined structural signature
    (clause sizes and polarities they appear under, then the signatures
    of their co-literals), so isomorphic lineages — e.g. the per-answer
    lineages of one query — usually map to the *same* renamed clause
    set and share a cache entry.  Signature ties fall back to the
    original event key: that can only miss a cache hit, never conflate
    two lineages, because the cache key is the renamed clause set
    itself.

    Returns the renamed lineage, the weight map for its events, and
    the renaming itself (original event → canonical event) — the
    serving layer inverts it to refresh canonical weight vectors from
    live database marginals.
    """
    occurrence_lists: Dict[TupleKey, List[tuple]] = {}
    for clause in lineage.clauses:
        for key, polarity in clause:
            occurrence_lists.setdefault(key, []).append((len(clause), polarity))
    signatures: Dict[TupleKey, tuple] = {
        key: tuple(sorted(entries))
        for key, entries in occurrence_lists.items()
    }
    # One refinement pass: extend each occurrence with the signatures
    # of its co-literals, again visiting every clause only once.
    refined_lists: Dict[TupleKey, List[tuple]] = {key: [] for key in signatures}
    for clause in lineage.clauses:
        members = sorted(clause, key=lambda lit: (signatures[lit[0]], lit[1]))
        member_signatures = [
            (signatures[key], polarity) for key, polarity in members
        ]
        for position, (key, polarity) in enumerate(members):
            others = tuple(
                member_signatures[:position] + member_signatures[position + 1:]
            )
            refined_lists[key].append((len(clause), polarity, others))
    refined: Dict[TupleKey, tuple] = {
        key: tuple(sorted(entries))
        for key, entries in refined_lists.items()
    }
    order = sorted(
        signatures,
        key=lambda key: (refined[key], signatures[key], _event_tiebreak(key)),
    )
    renamed_key: Dict[TupleKey, TupleKey] = {
        key: ("e", (index,)) for index, key in enumerate(order)
    }
    renamed_clauses = frozenset(
        frozenset((renamed_key[k], polarity) for k, polarity in clause)
        for clause in lineage.clauses
    )
    weights = {
        renamed_key[k]: lineage.weights[k] for k in order
    }
    return (
        Lineage(renamed_clauses, weights, certainly_true=lineage.certainly_true),
        weights,
        renamed_key,
    )


def _event_tiebreak(key: TupleKey):
    name, row = key
    return (name, canonical_row_key(row))
