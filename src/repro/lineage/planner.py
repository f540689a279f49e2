"""Cost-based grounding planner: join graph, greedy order, filters.

Grounding is a per-clause backtracking search (:mod:`.grounding`); its
cost is dominated by the *join order* — which sub-goal enumerates its
candidate rows at which depth — and by how early doomed candidates are
pruned.  The seed planner ordered atoms left-to-right by a purely
syntactic heuristic (most constants first, then connectivity) and
probed each atom through the **first** constant-or-bound column in
term order.  On skewed large-domain instances that order can start
with a hundred-thousand-row fact table instead of a ten-row dimension
table, and the difference is orders of magnitude.

This module replaces that heuristic with a small cost-based optimizer
in the shape of plado's datalog evaluator (``construct_join_graph`` /
``GreedyOptimizer`` / filter and projection insertion):

* **Join graph** — :func:`build_join_graph` connects the clause's
  positive sub-goals through their shared variables; the planner walks
  it greedily.

* **Cost model** — per-atom cardinalities (``len(relation)``) and
  per-column distinct counts (:meth:`~repro.db.relation.Relation.
  distinct_count`, backed by the same column indexes the executor
  probes) yield an estimated candidate count for every (atom, bound
  set) pair.  Constant columns are estimated *exactly* from the column
  index.

* **Greedy join order** — repeatedly take the cheapest remaining atom,
  preferring atoms connected to already-bound variables (avoiding
  accidental cartesian products), and probe each atom through its
  *most selective* bound column — not the first one in term order —
  preferring columns whose index already exists on ties.

* **Equality pre-binding** — an order predicate ``x = c`` binds ``x``
  before any atom is probed, turning index probes into constant
  prefetches; every other predicate is checked at the earliest step
  where its variables are bound instead of only after a full match.

* **Semijoin filters** — a step that enumerates a large candidate list
  drops rows whose join-column value cannot appear in a *smaller*
  joining column (membership in the other relation's index keys).
  Filters only remove rows that could never complete a match, so the
  produced lineage is bit-identical.

* **Early projections** — in *distinct* mode (deterministic
  evaluation: :func:`~repro.lineage.grounding.query_holds`,
  :func:`~repro.lineage.grounding.answers_holding`) candidate rows are
  deduplicated on the columns that still matter downstream (head,
  predicates, negated sub-goals, later joins).  Projection changes
  match multiplicity, never the answer-tuple set, so it stays off in
  lineage mode where every match is one DNF clause.

The legacy behaviour is kept behind ``mode="legacy"`` (or
``find_matches(..., plan="legacy")``): same order, same probe choice,
predicates evaluated only on complete matches.  The differential
harness in ``tests/test_grounding_planner.py`` pins the planned and
legacy groundings to identical lineages across the query zoo and
seeded random CQs/UCQs.

Plans are cached per clause *shape* and database *structure* (relation
structure versions), so a serving-layer reweight — which never changes
which tuples ground a query — reuses the plan outright; see
:class:`GroundingPlanner`.  Planning time and executor candidate
counts land in the obs spine as ``repro_grounding_plan_seconds`` and
``repro_grounding_candidates_total``.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom
from ..core.predicates import Comparison
from ..core.query import ConjunctiveQuery
from ..core.terms import Constant, Variable
from ..db.database import ProbabilisticDatabase
from ..obs.metrics import NULL_REGISTRY, MetricsRegistry

__all__ = [
    "DEFAULT_PLANNER",
    "GroundingError",
    "GroundingPlan",
    "GroundingPlanner",
    "JoinGraph",
    "StepPlan",
    "build_join_graph",
    "check_groundable",
]


class GroundingError(ValueError):
    """A clause cannot be grounded as written.

    Subclasses :class:`ValueError` so existing callers catching the
    seed's range-restriction error keep working.
    """


# ----------------------------------------------------------------------
# Join graph
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class JoinEdge:
    """An edge of the join graph: two atoms sharing ``variables``."""

    left: int
    right: int
    variables: Tuple[Variable, ...]


@dataclass(frozen=True)
class JoinGraph:
    """The variable-sharing graph over a clause's positive sub-goals."""

    atoms: Tuple[Atom, ...]
    edges: Tuple[JoinEdge, ...]

    def neighbors(self, index: int) -> FrozenSet[int]:
        """Atom indices joined (sharing a variable) with ``index``."""
        out: Set[int] = set()
        for edge in self.edges:
            if edge.left == index:
                out.add(edge.right)
            elif edge.right == index:
                out.add(edge.left)
        return frozenset(out)

    def is_connected(self) -> bool:
        """True when every atom is reachable from the first."""
        if len(self.atoms) <= 1:
            return True
        seen = {0}
        frontier = [0]
        while frontier:
            for neighbor in self.neighbors(frontier.pop()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self.atoms)


def build_join_graph(atoms: Sequence[Atom]) -> JoinGraph:
    """The join graph over ``atoms`` (one node per atom, one edge per
    variable-sharing pair, labeled with the shared variables)."""
    atoms = tuple(atoms)
    occurrences: Dict[Variable, List[int]] = {}
    for index, atom in enumerate(atoms):
        for variable in atom.variables:
            slots = occurrences.setdefault(variable, [])
            if not slots or slots[-1] != index:
                slots.append(index)
    shared: Dict[Tuple[int, int], List[Variable]] = {}
    for variable, indices in occurrences.items():
        for i, left in enumerate(indices):
            for right in indices[i + 1:]:
                shared.setdefault((left, right), []).append(variable)
    edges = tuple(
        JoinEdge(left, right, tuple(variables))
        for (left, right), variables in sorted(shared.items())
    )
    return JoinGraph(atoms, edges)


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------

#: A semijoin filter: candidate rows must have ``row[position]`` among
#: the values of ``other_relation``'s column ``other_position``.
SemijoinFilter = Tuple[int, str, int]


@dataclass(frozen=True)
class StepPlan:
    """One step of the planned join order.

    ``probe`` is how the executor fetches candidates:

    * ``"constant"`` — prefetch rows matching ``probe_value`` at
      ``probe_position`` (column index, built once);
    * ``"index"`` — per-step dict lookup of the bound
      ``probe_variable``'s value in the column index at
      ``probe_position``;
    * ``"scan"`` — the full relation.

    ``semijoins`` prune candidates by join-column membership;
    ``predicates`` are the order predicates checkable as soon as this
    step binds; ``projection`` (distinct mode only) lists the column
    positions candidates are deduplicated on, or ``None``.
    """

    atom: Atom
    probe: str
    probe_position: Optional[int] = None
    probe_value: Optional[object] = None
    probe_variable: Optional[Variable] = None
    semijoins: Tuple[SemijoinFilter, ...] = ()
    predicates: Tuple[Comparison, ...] = ()
    projection: Optional[Tuple[int, ...]] = None
    estimated_rows: float = 0.0

    def describe(self) -> str:
        atom = str(self.atom)
        if self.probe == "constant":
            how = f"const@{self.probe_position}"
        elif self.probe == "index":
            how = f"ix@{self.probe_position}"
        else:
            how = "scan"
        extras = []
        if self.semijoins:
            extras.append("⋉" + ",".join(
                f"{pos}∈{rel}[{other}]" for pos, rel, other in self.semijoins
            ))
        if self.predicates:
            extras.append("σ" + ",".join(str(p) for p in self.predicates))
        if self.projection is not None:
            extras.append("π" + ",".join(str(p) for p in self.projection))
        suffix = (" " + " ".join(extras)) if extras else ""
        return f"{atom}[{how}~{self.estimated_rows:.0f}]{suffix}"


@dataclass(frozen=True)
class GroundingPlan:
    """A fully-resolved execution order for one clause.

    ``prebound`` carries variable bindings harvested from ``x = c``
    order predicates (applied before any atom is probed);
    ``unsatisfiable`` marks clauses whose ground/equality predicates
    are contradictory — the executor returns no matches without
    touching the database.  ``cost`` is the estimated total number of
    candidate rows enumerated (the greedy objective), comparable
    between plans for the same clause only.
    """

    clause: ConjunctiveQuery
    mode: str
    steps: Tuple[StepPlan, ...]
    prebound: Tuple[Tuple[Variable, object], ...] = ()
    unsatisfiable: bool = False
    cost: float = 0.0
    distinct: bool = False
    plan_seconds: float = 0.0

    @property
    def order(self) -> Tuple[Atom, ...]:
        """The planned atom order (positive sub-goals only)."""
        return tuple(step.atom for step in self.steps)

    def describe(self) -> str:
        """A one-line rendering, e.g. for RoutingDecision / logs."""
        if self.unsatisfiable:
            return f"{self.mode}: unsatisfiable predicates"
        body = " → ".join(step.describe() for step in self.steps) or "⊤"
        bound = (
            " {" + ", ".join(f"{v}={val!r}" for v, val in self.prebound) + "}"
            if self.prebound else ""
        )
        return f"{self.mode}: {body}{bound} (est {self.cost:.0f} rows)"


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------

#: Insert a semijoin filter only when the joining column's value set is
#: at most this fraction of the filtered column's distinct count — a
#: filter that barely prunes is pure overhead on the hot path.
SEMIJOIN_SELECTIVITY = 0.5

#: Default bound on cached plans per planner (LRU, oldest out).
PLAN_CACHE_LIMIT = 512


class GroundingPlanner:
    """Plans clause groundings, with caching and telemetry.

    Args:
        mode: ``"cost"`` (the join-graph planner) or ``"legacy"`` (the
            seed's syntactic order, kept for differential testing).
        metrics: obs registry receiving ``repro_grounding_plan_seconds``
            (histogram, labeled by mode) and
            ``repro_grounding_candidates_total`` (counter, labeled by
            mode) — the :data:`DEFAULT_PLANNER` uses the shared no-op
            registry.
        cache_limit: LRU capacity of the plan cache.

    The cache key is ``(clause, distinct, relation structure
    versions)``: plans carry only column positions and decisions —
    never materialized rows — so a stale hit could at worst execute a
    suboptimal order, and structure versions make even that impossible
    while only *probabilities* drift (the serving layer's reweight
    path).  This is what lets :class:`~repro.serve.QuerySession`-
    prepared queries reuse plans across reweights for free.
    """

    def __init__(
        self,
        mode: str = "cost",
        metrics: Optional[MetricsRegistry] = None,
        cache_limit: int = PLAN_CACHE_LIMIT,
    ) -> None:
        if mode not in ("cost", "legacy"):
            raise ValueError(f"unknown planner mode {mode!r}")
        if cache_limit <= 0:
            raise ValueError(f"cache_limit must be positive, got {cache_limit}")
        self.mode = mode
        self.cache_limit = cache_limit
        self._cache: "OrderedDict[tuple, GroundingPlan]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._metric_plan_seconds = registry.histogram(
            "repro_grounding_plan_seconds",
            "Time spent planning one clause's grounding order",
            ("mode",),
        )
        self._metric_candidates = registry.counter(
            "repro_grounding_candidates_total",
            "Candidate rows enumerated by the grounding executor",
            ("mode",),
        )

    # -- telemetry ------------------------------------------------------

    def observe_candidates(self, count: int, mode: Optional[str] = None) -> None:
        """Fold one search's enumerated-candidate count into the spine."""
        if count:
            self._metric_candidates.labels(mode or self.mode).inc(count)

    # -- planning -------------------------------------------------------

    def plan_clause(
        self,
        clause: ConjunctiveQuery,
        db: ProbabilisticDatabase,
        *,
        distinct: bool = False,
        mode: Optional[str] = None,
    ) -> GroundingPlan:
        """The (cached) plan for one conjunctive clause.

        Raises:
            GroundingError: the clause is not range-restricted, or has
                no positive sub-goals while its order predicates or
                negated sub-goals reference variables nothing binds.
        """
        mode = mode or self.mode
        positive = [a for a in clause.atoms if not a.negated]
        check_groundable(clause, positive)
        key = (
            clause, distinct, mode,
            tuple(
                (name, db.relation(name).structure_version)
                for name in sorted({a.relation for a in positive})
            ),
        )
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.cache_hits += 1
            return cached
        start = time.perf_counter()
        if mode == "legacy":
            plan = _legacy_plan(clause, positive)
        else:
            plan = _cost_plan(clause, positive, db, distinct)
        elapsed = time.perf_counter() - start
        plan = _with_plan_seconds(plan, elapsed)
        self._metric_plan_seconds.labels(mode).observe(elapsed)
        self.cache_misses += 1
        self._cache[key] = plan
        while len(self._cache) > self.cache_limit:
            self._cache.popitem(last=False)
        return plan

    def describe_cached(
        self, query, db: Optional[ProbabilisticDatabase] = None
    ) -> Optional[str]:
        """The cached plan description(s) for ``query``, if planned.

        Purely introspective — never plans.  For a union the per-
        disjunct descriptions join with ``" | "``; ``None`` when no
        disjunct has a cached plan (e.g. the query went to a safe
        tier and was never grounded).  A disjunct's Boolean body counts
        as the disjunct: ``ground_lineage`` plans a headed query's body.
        """
        from ..core.union import disjuncts_of  # local: avoid cycle

        parts: List[str] = []
        for disjunct in disjuncts_of(query):
            bodies = (disjunct, disjunct.boolean())
            described = None
            for key in reversed(self._cache):
                if key[0] in bodies:
                    described = self._cache[key].describe()
                    break
            if described:
                parts.append(described)
        return " | ".join(parts) if parts else None

    def clear(self) -> None:
        """Drop every cached plan."""
        self._cache.clear()


#: Shared default planner: engines that are not handed one use this —
#: plan caching still applies, telemetry goes to the no-op registry.
DEFAULT_PLANNER = GroundingPlanner()


# ----------------------------------------------------------------------
# Internals: validation
# ----------------------------------------------------------------------


def check_groundable(
    clause: ConjunctiveQuery, positive: Sequence[Atom]
) -> None:
    """Reject a clause that is not range-restricted.

    Raises:
        GroundingError: a variable occurs only in negated sub-goals or
            predicates (``positive`` holds the clause's positive atoms).
    """
    restricted: Set[Variable] = set()
    for atom in positive:
        restricted.update(atom.variables)
    loose = [v.name for v in clause.variables if v not in restricted]
    if not loose:
        return
    if not positive:
        raise GroundingError(
            f"clause has no positive sub-goals, but its order predicates "
            f"or negated sub-goals reference variables {loose} that "
            f"nothing binds; an empty conjunction only matches when "
            f"every predicate is ground"
        )
    raise GroundingError(
        f"query is not range-restricted: {loose} "
        f"occur only in negated sub-goals or predicates"
    )


# ----------------------------------------------------------------------
# Internals: legacy plan (the seed's behaviour, verbatim)
# ----------------------------------------------------------------------


def _legacy_order(atoms: Sequence[Atom]) -> List[Atom]:
    """The seed's greedy syntactic order: most-constant atom first,
    then always an atom sharing a bound variable when possible."""
    remaining = list(atoms)
    if not remaining:
        return []
    order: List[Atom] = []
    bound: Set[Variable] = set()
    remaining.sort(key=lambda a: (-len(a.constants), len(a.variables)))
    while remaining:
        connected = [a for a in remaining if bound & set(a.variables)]
        chosen = connected[0] if connected else remaining[0]
        remaining.remove(chosen)
        order.append(chosen)
        bound.update(chosen.variables)
    return order


def _legacy_plan(
    clause: ConjunctiveQuery, positive: Sequence[Atom]
) -> GroundingPlan:
    """The seed executor's decisions as a plan: first constant-or-bound
    column in term order wins, predicates only on complete matches."""
    steps: List[StepPlan] = []
    bound: Set[Variable] = set()
    order = _legacy_order(positive)
    for step_index, atom in enumerate(order):
        probe, position, value, variable = "scan", None, None, None
        for term_position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                probe, position, value = "constant", term_position, term.value
                break
            if term in bound:
                probe, position, variable = "index", term_position, term
                break
        predicates = clause.predicates if step_index == len(order) - 1 else ()
        steps.append(StepPlan(
            atom=atom, probe=probe, probe_position=position,
            probe_value=value, probe_variable=variable,
            predicates=tuple(predicates),
        ))
        bound.update(atom.variables)
    return GroundingPlan(
        clause=clause, mode="legacy", steps=tuple(steps),
        # With no atoms the legacy executor still checks the (ground)
        # predicates once against the empty assignment.
        prebound=(),
    )


# ----------------------------------------------------------------------
# Internals: cost-based plan
# ----------------------------------------------------------------------


def _cost_plan(
    clause: ConjunctiveQuery,
    positive: Sequence[Atom],
    db: ProbabilisticDatabase,
    distinct: bool,
) -> GroundingPlan:
    prebound, equalities, unsatisfiable = _harvest_equalities(clause)
    if unsatisfiable:
        return GroundingPlan(
            clause=clause, mode="cost", steps=(), prebound=(),
            unsatisfiable=True, distinct=distinct,
        )
    graph = build_join_graph(positive)
    remaining = list(range(len(positive)))
    bound: Set[Variable] = set(prebound)
    steps: List[StepPlan] = []
    total_cost = 0.0
    frontier_size = 1.0
    pending = [p for p in clause.predicates if p not in equalities]
    droppable = _droppable_variables(clause, positive) if distinct else frozenset()
    while remaining:
        best = None
        for index in remaining:
            atom = positive[index]
            estimate, probe = _estimate_atom(atom, db, bound)
            # An atom probed through a constant or a bound variable is
            # "connected" to the current frontier; scans of fresh
            # components are deferred (no accidental cartesian blowup
            # mid-plan), then chosen by cost when nothing connects.
            connected = 0 if probe[0] != "scan" else 1
            candidate = (connected, estimate, str(atom), index, probe)
            if best is None or candidate[:3] < best[:3]:
                best = candidate
        _, estimate, _, index, probe = best
        atom = positive[index]
        remaining.remove(index)
        kind, position, value, variable = probe
        newly_bound = bound | set(atom.variables)
        step_predicates = tuple(
            p for p in pending
            if all(v in newly_bound for v in p.variables)
        )
        pending = [p for p in pending if p not in step_predicates]
        semijoins = _semijoin_filters(atom, position if kind != "scan" else None,
                                      clause, db, estimate)
        projection = (
            _projection_for(atom, droppable) if distinct else None
        )
        steps.append(StepPlan(
            atom=atom, probe=kind, probe_position=position,
            probe_value=value, probe_variable=variable,
            semijoins=semijoins, predicates=step_predicates,
            projection=projection, estimated_rows=estimate,
        ))
        total_cost += frontier_size * max(estimate, 1.0)
        frontier_size *= max(estimate, 1.0)
        bound = newly_bound
    # Predicates whose variables nothing binds were rejected by
    # check_groundable; anything still pending is ground — evaluated
    # before the search starts (attach to an empty-step plan).
    steps_tuple = tuple(steps)
    if pending and steps_tuple:
        last = steps_tuple[-1]
        steps_tuple = steps_tuple[:-1] + (
            _replace_predicates(last, last.predicates + tuple(pending)),
        )
    return GroundingPlan(
        clause=clause, mode="cost", steps=steps_tuple,
        prebound=tuple(sorted(prebound.items(), key=lambda kv: kv[0].name)),
        cost=total_cost, distinct=distinct,
    )


def _replace_predicates(step: StepPlan, predicates: Tuple[Comparison, ...]) -> StepPlan:
    return StepPlan(
        atom=step.atom, probe=step.probe,
        probe_position=step.probe_position, probe_value=step.probe_value,
        probe_variable=step.probe_variable, semijoins=step.semijoins,
        predicates=predicates, projection=step.projection,
        estimated_rows=step.estimated_rows,
    )


def _with_plan_seconds(plan: GroundingPlan, seconds: float) -> GroundingPlan:
    return GroundingPlan(
        clause=plan.clause, mode=plan.mode, steps=plan.steps,
        prebound=plan.prebound, unsatisfiable=plan.unsatisfiable,
        cost=plan.cost, distinct=plan.distinct, plan_seconds=seconds,
    )


def _harvest_equalities(
    clause: ConjunctiveQuery,
) -> Tuple[Dict[Variable, object], Set[Comparison], bool]:
    """``x = c`` predicates become up-front bindings.

    Returns (bindings, predicates consumed, contradiction flag).  Only
    variable/constant equalities pre-bind; variable/variable equality
    and every other operator stay as step filters.
    """
    prebound: Dict[Variable, object] = {}
    consumed: Set[Comparison] = set()
    for predicate in clause.predicates:
        if predicate.op != "=":
            continue
        left, right = predicate.left, predicate.right
        if isinstance(left, Variable) and isinstance(right, Constant):
            variable, value = left, right.value
        elif isinstance(right, Variable) and isinstance(left, Constant):
            variable, value = right, left.value
        else:
            continue
        existing = prebound.get(variable, _MISSING)
        if existing is not _MISSING and existing != value:
            return {}, set(), True
        prebound[variable] = value
        consumed.add(predicate)
    return prebound, consumed, False


def _estimate_atom(
    atom: Atom, db: ProbabilisticDatabase, bound: Set[Variable]
) -> Tuple[float, Tuple[str, Optional[int], Optional[object], Optional[Variable]]]:
    """Estimated candidate rows and the chosen probe for one atom.

    The probe is the single most selective constant/bound column; the
    *estimate* multiplies the independent selectivities of every
    constant and bound column (the rows the executor recurses on after
    `_bind`-checking the non-probe columns), floored at one row.
    """
    relation = db.relation(atom.relation)
    cardinality = float(len(relation))
    indexed = relation.indexed_positions()
    best_rows: Optional[float] = None
    best_key: Optional[tuple] = None
    probe: Tuple[str, Optional[int], Optional[object], Optional[Variable]] = (
        "scan", None, None, None,
    )
    combined = cardinality
    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            rows = float(len(relation.matching(position, term.value)))
            candidate_probe = ("constant", position, term.value, None)
        elif term in bound:
            distinct = max(1, relation.distinct_count(position))
            rows = cardinality / distinct
            candidate_probe = ("index", position, None, term)
        else:
            continue
        combined *= rows / max(cardinality, 1.0)
        # Most selective column wins; prefer an already-built index,
        # then the lowest position, for determinism.
        key = (rows, 0 if position in indexed or isinstance(term, Constant) else 1,
               position)
        if best_key is None or key < best_key:
            best_key = key
            best_rows = rows
            probe = candidate_probe
    if best_rows is None:
        return cardinality, probe
    # Combined selectivity of every checked column, floored at one row
    # unless the probe itself proves emptiness.
    estimate = max(combined, 0.0 if best_rows == 0.0 else 1.0)
    return min(estimate, best_rows), probe


def _semijoin_filters(
    atom: Atom,
    probe_position: Optional[int],
    clause: ConjunctiveQuery,
    db: ProbabilisticDatabase,
    estimated_rows: float,
) -> Tuple[SemijoinFilter, ...]:
    """Membership filters against smaller joining columns.

    Only worthwhile when this step enumerates many rows; the filter
    set must be decisively smaller than the column's own diversity
    (:data:`SEMIJOIN_SELECTIVITY`) to pay for the per-row check.
    """
    if estimated_rows < 16:
        return ()
    relation = db.relation(atom.relation)
    filters: List[SemijoinFilter] = []
    for position, term in enumerate(atom.terms):
        if position == probe_position or not isinstance(term, Variable):
            continue
        my_distinct = max(1, relation.distinct_count(position))
        best: Optional[Tuple[int, SemijoinFilter]] = None
        for other in clause.atoms:
            if other is atom or other.negated:
                continue
            for other_position, other_term in enumerate(other.terms):
                if other_term != term:
                    continue
                other_relation = db.relation(other.relation)
                other_distinct = max(1, other_relation.distinct_count(other_position))
                if other_distinct <= my_distinct * SEMIJOIN_SELECTIVITY:
                    entry = (other_distinct,
                             (position, other.relation, other_position))
                    if best is None or entry[0] < best[0]:
                        best = entry
        if best is not None:
            filters.append(best[1])
    return tuple(filters)


def _droppable_variables(
    clause: ConjunctiveQuery, positive: Sequence[Atom]
) -> FrozenSet[Variable]:
    """Variables whose value cannot matter to the *set* of answers:
    one occurrence, in one positive sub-goal, absent from the head,
    the predicates and every negated sub-goal."""
    counts: Dict[Variable, int] = {}
    for atom in positive:
        for term in atom.terms:
            if isinstance(term, Variable):
                counts[term] = counts.get(term, 0) + 1
    keep: Set[Variable] = set()
    for term in clause.head or ():
        if isinstance(term, Variable):
            keep.add(term)
    for predicate in clause.predicates:
        keep.update(predicate.variables)
    for atom in clause.atoms:
        if atom.negated:
            keep.update(atom.variables)
    return frozenset(
        v for v, n in counts.items() if n == 1 and v not in keep
    )


def _projection_for(
    atom: Atom, droppable: FrozenSet[Variable]
) -> Optional[Tuple[int, ...]]:
    """Columns to deduplicate candidates on, or None when all matter."""
    kept = tuple(
        position for position, term in enumerate(atom.terms)
        if not (isinstance(term, Variable) and term in droppable)
    )
    return kept if len(kept) < len(atom.terms) else None


_MISSING = object()
