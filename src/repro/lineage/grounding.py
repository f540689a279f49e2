"""Grounding: matching a query (CQ or union) against a database.

``find_matches`` enumerates all satisfying assignments of one
conjunctive query's variables by backtracking joins over the stored
tuples (with per-column indexes); ``ground_lineage`` turns the matches
into a DNF :class:`~repro.lineage.boolean.Lineage`.  For answer-tuple
queries, ``ground_answer_lineages`` runs the *same single matching
pass* and groups the clauses by head valuation — one lineage per
answer tuple, instead of re-running ``find_matches`` once per answer.

The join order and per-atom lookup choices come from the cost-based
planner in :mod:`repro.lineage.planner`: a join graph over the
clause's positive sub-goals, selectivity estimates from relation
cardinalities and per-column distinct counts, greedy ordering,
semijoin filters and (for deterministic evaluation) early projections.
The seed's syntactic left-to-right order survives behind
``plan="legacy"`` — the differential harness in
``tests/test_grounding_planner.py`` pins both modes to identical
lineages.  Every entry point accepts an optional
:class:`~repro.lineage.planner.GroundingPlanner` carrying the plan
cache and the obs metrics; by default the shared
:data:`~repro.lineage.planner.DEFAULT_PLANNER` is used.

The lineage-level entry points (`ground_lineage`,
`ground_answer_lineages`, `answer_tuples`, `answers_holding`,
`query_holds`) also accept a :class:`~repro.core.union.UnionQuery`: a
UCQ lineage is still a DNF, so each disjunct is matched independently
and the clauses merge into one lineage (per answer), which is why the
compiled, Monte Carlo and brute-force tiers ride on unions unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.atoms import Atom
from ..core.predicates import Comparison
from ..core.query import ConjunctiveQuery
from ..core.terms import Constant, Variable
from ..core.union import AnyQuery, UnionQuery, disjuncts_of
from ..db.database import GroundTuple, ProbabilisticDatabase, TupleKey
from ..db.relation import canonical_row_key
from .boolean import Lineage, Literal, make_lineage
from .planner import (
    DEFAULT_PLANNER,
    GroundingError,
    GroundingPlan,
    GroundingPlanner,
    StepPlan,
)

Assignment = Dict[Variable, object]

#: ``plan=`` argument: a mode name or a pre-built plan.
PlanLike = Union[None, str, GroundingPlan]


def find_matches(
    query: ConjunctiveQuery,
    db: ProbabilisticDatabase,
    *,
    plan: PlanLike = None,
    planner: Optional[GroundingPlanner] = None,
) -> List[Assignment]:
    """All assignments making every *positive* sub-goal a stored tuple
    and satisfying all arithmetic predicates.

    Negated sub-goals do not restrict matching here (their tuples need
    not exist); they are interpreted by the lineage construction.
    Variables occurring only in negated sub-goals are rejected — the
    query would not be range-restricted.

    ``plan`` selects the join order: ``None`` defers to the planner
    (cost-based by default), ``"legacy"`` forces the seed's syntactic
    order, ``"cost"`` forces the join-graph planner, and a pre-built
    :class:`~repro.lineage.planner.GroundingPlan` is executed as-is.
    """
    if isinstance(query, UnionQuery):
        raise TypeError(
            "find_matches works per disjunct; iterate UnionQuery.disjuncts "
            "or use the lineage-level entry points"
        )
    resolved, planner = _resolve_plan(query, db, plan, planner)
    matches, candidates = _planned_matches(resolved, db)
    planner.observe_candidates(candidates, resolved.mode)
    return matches


def query_holds(
    query: AnyQuery,
    db: ProbabilisticDatabase,
    *,
    planner: Optional[GroundingPlanner] = None,
) -> bool:
    """True iff the query has at least one match (deterministic check).

    A union holds when any disjunct holds.
    """
    return any(_cq_holds(d, db, planner) for d in disjuncts_of(query))


def _cq_holds(
    query: ConjunctiveQuery,
    db: ProbabilisticDatabase,
    planner: Optional[GroundingPlanner] = None,
) -> bool:
    resolved, planner = _resolve_plan(
        query, db, None, planner, distinct=True
    )
    if resolved.unsatisfiable:
        return False
    lookups, assignment, counter = _prepare_execution(resolved, db)
    if lookups is None:
        return _predicates_hold(query.predicates, assignment) and \
            _negatives_absent(query, db, assignment)
    steps = resolved.steps

    def backtrack(step: int) -> bool:
        if step == len(steps):
            return _negatives_absent(query, db, assignment)
        lookup = lookups[step]
        rows = lookup.candidates(assignment)
        counter[0] += len(rows)
        atom = steps[step].atom
        predicates = steps[step].predicates
        for row in rows:
            added = _bind(atom, row, assignment)
            if added is None:
                continue
            if predicates and not _predicates_hold(predicates, assignment):
                _undo(assignment, added)
                continue
            if backtrack(step + 1):
                return True
            _undo(assignment, added)
        return False

    try:
        return backtrack(0)
    finally:
        planner.observe_candidates(counter[0], resolved.mode)


def check_arities(query: AnyQuery, db: ProbabilisticDatabase) -> None:
    """Reject an atom whose arity differs from its stored relation's.

    Runs before any engine sees the query: without it a too-wide atom
    indexes past the end of the stored rows and a too-narrow one
    silently matches nothing.  A relation absent from ``db`` reads as
    empty whatever the atom's arity.

    Raises:
        GroundingError: naming the relation, its arity and the atom's.
    """
    for disjunct in disjuncts_of(query):
        for atom in disjunct.atoms:
            if not db.has_relation(atom.relation):
                continue
            arity = db.relation(atom.relation).arity
            if arity is not None and arity != atom.arity:
                raise GroundingError(
                    f"relation {atom.relation} has arity {arity}, but "
                    f"atom {atom} has arity {atom.arity}"
                )


def ground_lineage(
    query: AnyQuery,
    db: ProbabilisticDatabase,
    *,
    planner: Optional[GroundingPlanner] = None,
) -> Lineage:
    """The DNF lineage of ``query`` over ``db``.

    For every match: certain positive tuples (p = 1) are dropped from
    the clause, impossible ones never match; a negated sub-goal over an
    absent tuple is vacuously true, over a certain tuple it kills the
    match, otherwise it contributes a negative literal.

    A union contributes the clauses of every disjunct into one shared
    DNF (`make_lineage` dedupes and absorbs across disjuncts), so a
    UCQ lineage is indistinguishable from a CQ lineage downstream.

    ``query`` is treated as Boolean (an explicit head is ignored); use
    :func:`ground_answer_lineages` for per-answer lineages.
    """
    weights: Dict[TupleKey, float] = {}
    clauses: List[List[Literal]] = []
    for disjunct in disjuncts_of(query):
        for assignment in find_matches(disjunct, db, planner=planner):
            clause = _match_clause(disjunct, db, assignment, weights)
            if clause is not None:
                clauses.append(clause)
    return make_lineage(clauses, weights)


def ground_answer_lineages(
    query: AnyQuery,
    db: ProbabilisticDatabase,
    *,
    planner: Optional[GroundingPlanner] = None,
) -> Dict[GroundTuple, Lineage]:
    """Per-answer lineages from one shared matching pass.

    Runs ``find_matches`` exactly once per disjunct, groups the matches
    by head valuation — for a union, *across* disjuncts, each bound
    through its own head — and builds one DNF lineage per answer tuple
    over one shared weight map.  Answers whose every match is dead
    (impossible tuples) get a false lineage.  The result is ordered
    canonically by answer tuple.
    """
    if query.head is None:
        raise ValueError(f"query has no head variables: {query}")
    weights: Dict[TupleKey, float] = {}
    grouped: Dict[GroundTuple, List[List[Literal]]] = {}
    for disjunct in disjuncts_of(query):
        head = disjunct.head
        for assignment in find_matches(disjunct, db, planner=planner):
            answer = tuple(
                term.value if isinstance(term, Constant) else assignment[term]
                for term in head
            )
            clauses = grouped.setdefault(answer, [])
            clause = _match_clause(disjunct, db, assignment, weights)
            if clause is not None:
                clauses.append(clause)
    return {
        answer: make_lineage(grouped[answer], weights)
        for answer in sorted(grouped, key=canonical_row_key)
    }


def answer_tuples(
    query: AnyQuery,
    db: ProbabilisticDatabase,
    *,
    planner: Optional[GroundingPlanner] = None,
) -> List[GroundTuple]:
    """Candidate answer tuples: head valuations with at least one
    match whose lineage is not identically false."""
    return [
        answer
        for answer, lineage in ground_answer_lineages(
            query, db, planner=planner
        ).items()
        if not lineage.is_false
    ]


def answers_holding(
    query: AnyQuery,
    db: ProbabilisticDatabase,
    *,
    planner: Optional[GroundingPlanner] = None,
) -> Set[GroundTuple]:
    """Answer tuples true on ``db`` read as a *deterministic* instance
    (negated sub-goals must be absent).  A union's answers are the
    union of its disjuncts' answers.  Used by world enumeration.

    Runs in *distinct* mode: the planner may deduplicate candidate
    rows on the columns that matter downstream (early projection) —
    sound here because only the set of head valuations is returned.
    """
    if query.head is None:
        raise ValueError(f"query has no head variables: {query}")
    answers: Set[GroundTuple] = set()
    for disjunct in disjuncts_of(query):
        head = disjunct.head
        resolved, resolved_planner = _resolve_plan(
            disjunct, db, None, planner, distinct=True
        )
        matches, candidates = _planned_matches(resolved, db)
        resolved_planner.observe_candidates(candidates, resolved.mode)
        for assignment in matches:
            if not _negatives_absent(disjunct, db, assignment):
                continue
            answers.add(tuple(
                term.value if isinstance(term, Constant) else assignment[term]
                for term in head
            ))
    return answers


def _match_clause(
    query: ConjunctiveQuery,
    db: ProbabilisticDatabase,
    assignment: Assignment,
    weights: Dict[TupleKey, float],
) -> Optional[List[Literal]]:
    """The clause of one match, or None when the match is dead."""
    clause: List[Literal] = []
    for atom in query.atoms:
        row = _ground_row(atom, assignment)
        key: TupleKey = (atom.relation, row)
        prob = float(db.probability(atom.relation, row))
        if atom.negated:
            if prob >= 1.0:
                return None
            if prob <= 0.0:
                continue
            weights[key] = prob
            clause.append((key, False))
        else:
            if prob >= 1.0:
                continue
            if prob <= 0.0:
                return None
            weights[key] = prob
            clause.append((key, True))
    return clause


# ----------------------------------------------------------------------
# Plan resolution and execution
# ----------------------------------------------------------------------


def _resolve_plan(
    query: ConjunctiveQuery,
    db: ProbabilisticDatabase,
    plan: PlanLike,
    planner: Optional[GroundingPlanner],
    distinct: bool = False,
) -> Tuple[GroundingPlan, GroundingPlanner]:
    planner = planner if planner is not None else DEFAULT_PLANNER
    if isinstance(plan, GroundingPlan):
        return plan, planner
    if plan is not None and plan not in ("legacy", "cost"):
        raise ValueError(
            f"plan must be None, 'legacy', 'cost' or a GroundingPlan, "
            f"got {plan!r}"
        )
    return (
        planner.plan_clause(query, db, distinct=distinct, mode=plan),
        planner,
    )


def _prepare_execution(
    plan: GroundingPlan, db: ProbabilisticDatabase
):
    """Lookups, the seeded assignment and a candidate counter.

    Returns ``(None, assignment, counter)`` for empty plans (no
    positive sub-goals): the caller then evaluates the clause's
    (necessarily ground) predicates against the empty assignment.
    """
    assignment: Assignment = dict(plan.prebound)
    counter = [0]
    if not plan.steps:
        return None, assignment, counter
    lookups = [_AtomLookup(step, db) for step in plan.steps]
    return lookups, assignment, counter


def _planned_matches(
    plan: GroundingPlan, db: ProbabilisticDatabase
) -> Tuple[List[Assignment], int]:
    """Execute one plan, returning matches and the candidate count."""
    if plan.unsatisfiable:
        return [], 0
    query = plan.clause
    lookups, assignment, counter = _prepare_execution(plan, db)
    if lookups is None:
        if _predicates_hold(query.predicates, assignment):
            return [dict(assignment)], 0
        return [], 0
    steps = plan.steps
    matches: List[Assignment] = []

    def backtrack(step: int) -> None:
        if step == len(steps):
            matches.append(dict(assignment))
            return
        lookup = lookups[step]
        rows = lookup.candidates(assignment)
        counter[0] += len(rows)
        atom = steps[step].atom
        predicates = steps[step].predicates
        for row in rows:
            added = _bind(atom, row, assignment)
            if added is None:
                continue
            if predicates and not _predicates_hold(predicates, assignment):
                _undo(assignment, added)
                continue
            backtrack(step + 1)
            _undo(assignment, added)

    backtrack(0)
    return matches, counter[0]


class _AtomLookup:
    """Pre-resolved candidate source for one step of the join order.

    The probe shape is decided by the planner (see
    :class:`~repro.lineage.planner.StepPlan`); this class binds it to
    the live database once per search:

    * ``constant`` — the matching rows are prefetched outright;
    * ``index`` — the per-column index dict is prefetched, so each
      step is ``index.get(assignment[var])``;
    * ``scan`` — the full relation, materialized once.

    Semijoin filters and (distinct mode) projections are applied when
    the base list materializes; filtered index probes are cached per
    probed value, so revisiting a join value during backtracking never
    refilters.
    """

    __slots__ = ("relation", "rows", "index", "variable",
                 "filters", "projection", "_filtered")

    def __init__(self, step: StepPlan, db: ProbabilisticDatabase) -> None:
        self.relation = db.relation(step.atom.relation)
        self.rows: Optional[list] = None
        self.index: Optional[Dict] = None
        self.variable: Optional[Variable] = None
        self.filters: Tuple[Tuple[int, Dict], ...] = tuple(
            (position, db.relation(other).index_on(other_position))
            for position, other, other_position in step.semijoins
        )
        self.projection = step.projection
        self._filtered: Optional[Dict] = None
        if step.probe == "constant":
            base = self.relation.matching(step.probe_position, step.probe_value)
            self.rows = self._reduce(base)
        elif step.probe == "index":
            self.index = self.relation.index_on(step.probe_position)
            self.variable = step.probe_variable
            if self.filters or self.projection is not None:
                self._filtered = {}
        else:
            self.rows = self._reduce(list(self.relation.tuples()))

    def _reduce(self, rows: list) -> list:
        """Apply semijoin filters, then projection-deduplication."""
        if self.filters:
            filters = self.filters
            rows = [
                row for row in rows
                if all(row[position] in keys for position, keys in filters)
            ]
        if self.projection is not None and len(rows) > 1:
            projection = self.projection
            seen = set()
            kept = []
            for row in rows:
                key = tuple(row[position] for position in projection)
                if key not in seen:
                    seen.add(key)
                    kept.append(row)
            rows = kept
        return rows

    def candidates(self, assignment: Assignment) -> list:
        if self.rows is not None:
            return self.rows
        value = assignment[self.variable]
        if self._filtered is None:
            return self.index.get(value, _NO_ROWS)
        cached = self._filtered.get(value)
        if cached is None:
            cached = self._reduce(self.index.get(value, _NO_ROWS))
            self._filtered[value] = cached
        return cached


_NO_ROWS: list = []


def _bind(atom: Atom, row: Tuple, assignment: Assignment) -> Optional[List[Variable]]:
    added: List[Variable] = []
    for term, value in zip(atom.terms, row):
        if isinstance(term, Constant):
            if term.value != value:
                _undo(assignment, added)
                return None
            continue
        bound = assignment.get(term, _MISSING)
        if bound is _MISSING:
            assignment[term] = value
            added.append(term)
        elif bound != value:
            _undo(assignment, added)
            return None
    return added


def _undo(assignment: Assignment, added: List[Variable]) -> None:
    for variable in added:
        del assignment[variable]


_MISSING = object()


def _predicates_hold(
    predicates: Sequence[Comparison], assignment: Assignment
) -> bool:
    for pred in predicates:
        left = pred.left.value if isinstance(pred.left, Constant) else assignment[pred.left]
        right = pred.right.value if isinstance(pred.right, Constant) else assignment[pred.right]
        try:
            ok = pred.evaluate(left, right)
        except TypeError:
            ok = pred.evaluate(
                (type(left).__name__, str(left)), (type(right).__name__, str(right))
            )
        if not ok:
            return False
    return True


def _negatives_absent(
    query: ConjunctiveQuery, db: ProbabilisticDatabase, assignment: Assignment
) -> bool:
    for atom in query.negative_atoms:
        row = _ground_row(atom, assignment)
        if row in db.relation(atom.relation):
            return False
    return True


def _ground_row(atom: Atom, assignment: Assignment) -> Tuple:
    return tuple(
        term.value if isinstance(term, Constant) else assignment[term]
        for term in atom.terms
    )
