"""The safe-plan recurrence of Theorem 1.3 / Equation (3).

For hierarchical queries *without self-joins* (every relation symbol
occurs in at most one sub-goal), the paper's recurrence computes the
exact probability in PTIME::

    p(q) = p(f0) * prod_i ( 1 - prod_{a in A} (1 - p(f_i[a/x_i])) )

where ``f0`` is the conjunction of ground sub-goals, ``f_1..f_m`` the
variable-containing connected components and ``x_i`` a maximal variable
of ``f_i`` (which, for a connected hierarchical query, occurs in every
sub-goal of the component).  Correctness rests on ``f_i[a/x_i]`` being
independent of ``f_j[a'/x_j]`` whenever ``i != j`` or ``a != a'`` —
which is exactly what the no-self-join restriction buys.

Negated sub-goals are supported per Theorem 3.11: a ground negated
sub-goal contributes ``1 - p(t)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom
from ..core.hierarchy import (
    find_non_hierarchical_witness,
    is_hierarchical,
    maximal_variables,
)
from ..core.predicates import Comparison, constants_order_consistent
from ..core.query import ConjunctiveQuery
from ..core.substitution import Substitution
from ..core.terms import Constant, Variable
from ..core.union import AnyQuery, UnionQuery
from ..db.database import GroundTuple, ProbabilisticDatabase
from .base import Answer, Engine, UnsupportedQueryError, rank_answers

#: A partial head valuation, sorted by variable name.
Valuation = Tuple[Tuple[Variable, object], ...]


class SafePlanEngine(Engine):
    """Equation (3), applied recursively along the query structure."""

    name = "safe-plan"

    def supports(self, query: AnyQuery) -> Optional[str]:
        """Admission is purely syntactic: one CQ, hierarchical,
        self-join free.  The reason names the precise cause.

        For an answer-tuple query pass the *generic residual* (head
        variables frozen to placeholder constants) — the same query
        :meth:`answers` checks internally.
        """
        return unsupported_reason(query)

    def prepare(self, query: AnyQuery) -> None:
        """Raise with the precise cause when :meth:`supports` says no."""
        check_supported(query)

    def probability(
        self, query: ConjunctiveQuery, db: ProbabilisticDatabase
    ) -> float:
        check_supported(query)
        if not query.is_satisfiable():
            return 0.0
        return _evaluate(query, db)

    def answers(
        self,
        query: ConjunctiveQuery,
        db: ProbabilisticDatabase,
        k: Optional[int] = None,
    ) -> List[Answer]:
        """The head pushed through Equation (3) as a group-by.

        One recursive pass computes a map *head valuation → probability*
        instead of a scalar: a component rooted at a head variable
        groups its branches by root value (no independent-OR collapse),
        everything below behaves exactly like the Boolean plan.  The
        plan's precondition is checked on the *residual* query (head
        variables read as constants), so e.g. ``Q(x) :- R(x), S(x,y),
        T(y)`` — non-hierarchical as a Boolean query — still has a safe
        group-by plan.
        """
        if query.head is None:
            return super().answers(query, db, k)
        check_supported(generic_residual(query))
        if not query.is_satisfiable():
            return []
        head_vars = set(query.head_variables)
        valuations = _answers_evaluate(query.boolean(), head_vars, db)
        results: List[Answer] = []
        for valuation, probability in valuations.items():
            bound = dict(valuation)
            answer = tuple(
                term.value if isinstance(term, Constant) else bound[term]
                for term in query.head
            )
            results.append((answer, probability))
        return rank_answers(results, k)


def unsupported_reason(query: AnyQuery) -> Optional[str]:
    """The precise reason Equation (3) does not apply, or ``None``.

    The hierarchy test runs on the positive part (Definition 3.9).
    Causes, most specific first: a union of CQs (safe plans cover a
    single rule), a self-join (named relation symbol), a
    non-hierarchical variable pair (named witness).
    """
    if isinstance(query, UnionQuery):
        return (
            f"union of {len(query.disjuncts)} conjunctive queries "
            f"(the safe plan covers a single self-join-free CQ; unions "
            f"go to the lifted tier)"
        )
    repeated = _repeated_relation(query)
    if repeated is not None:
        relation, count = repeated
        return (
            f"self-join: relation {relation} occurs in {count} sub-goals "
            f"(Equation (3) requires a self-join-free query)"
        )
    positive = query.positive_part()
    if not is_hierarchical(positive):
        witness = find_non_hierarchical_witness(positive)
        detail = (
            f"sg({witness.x}) and sg({witness.y}) cross"
            if witness is not None
            else "no hierarchy between variable sub-goal sets"
        )
        return f"non-hierarchical: {detail}, hence #P-hard (Theorem 1.4)"
    return None


def _repeated_relation(query: ConjunctiveQuery) -> Optional[Tuple[str, int]]:
    counts: Dict[str, int] = {}
    for atom in query.atoms:
        counts[atom.relation] = counts.get(atom.relation, 0) + 1
    for relation in sorted(counts):
        if counts[relation] > 1:
            return relation, counts[relation]
    return None


def check_supported(query: AnyQuery) -> None:
    """Raise (naming the precise cause) unless the query is a single
    hierarchical, self-join-free conjunctive query."""
    reason = unsupported_reason(query)
    if reason is not None:
        raise UnsupportedQueryError(f"{reason}: {query}")


def generic_residual(query: AnyQuery) -> AnyQuery:
    """The Boolean residual with head variables frozen to placeholder
    constants — the query every answer's residual is an instance of.

    Safety of an answer query is safety of this residual: head
    variables are never projected away, so they act as constants in
    the extensional plan.  For a union, each disjunct's head variables
    are frozen *positionally* (``@answer0, @answer1, ...`` by head
    position), so all disjuncts agree on the constants an answer tuple
    would bind.
    """
    if isinstance(query, UnionQuery):
        if query.is_boolean:
            return query
        return UnionQuery(
            _generic_cq_residual(d) for d in query.disjuncts
        )
    return _generic_cq_residual(query)


def _generic_cq_residual(query: ConjunctiveQuery) -> ConjunctiveQuery:
    if query.head is None:
        return query
    mapping: Dict[Variable, Constant] = {}
    for position, term in enumerate(query.head):
        if isinstance(term, Variable) and term not in mapping:
            mapping[term] = Constant(f"@answer{position}")
    bound = query.apply(Substitution(mapping))
    return ConjunctiveQuery(bound.atoms, bound.predicates)


def _answers_evaluate(
    query: ConjunctiveQuery, head_vars: Set[Variable], db: ProbabilisticDatabase
) -> Dict[Valuation, float]:
    """Equation (3) with group-by: map head valuation → probability.

    Components without head variables contribute scalar factors;
    components with head variables contribute per-valuation maps that
    are joined (cartesian product, probabilities multiplied) across
    components.
    """
    if not query.atoms:
        probability = 1.0 if _ground_predicates_hold(query.predicates) else 0.0
        return {(): probability} if probability else {}
    total: Dict[Valuation, float] = {(): 1.0}
    for component in query.connected_components():
        component_heads = head_vars & set(component.variables)
        if not component_heads:
            if not component.variables:
                factor = _ground_probability(component, db)
            else:
                factor = _component_probability(component, db)
            if factor == 0.0:
                return {}
            component_map: Dict[Valuation, float] = {(): factor}
        else:
            component_map = _component_answers(component, component_heads, db)
            if not component_map:
                return {}
        total = _join_valuations(total, component_map)
    return total


def _component_answers(
    component: ConjunctiveQuery,
    component_heads: Set[Variable],
    db: ProbabilisticDatabase,
) -> Dict[Valuation, float]:
    """Group-by over one connected component.

    With a head variable present we group branches by its value — a
    plain GROUP BY, no aggregation across values, because distinct
    values are distinct answers.  Once all head variables of the
    component are bound the Boolean independent-project (``1 - Π (1 -
    p)``) takes over via :func:`_answers_evaluate`'s scalar path.
    """
    group_var = min(component_heads, key=lambda v: v.name)
    out: Dict[Valuation, float] = {}
    for value in _candidates(component, group_var, db):
        branch = component.substitute(group_var, Constant(value))
        sub = _answers_evaluate(
            branch.drop_trivial_predicates(), component_heads - {group_var}, db
        )
        for valuation, probability in sub.items():
            if probability == 0.0:
                continue
            merged = tuple(sorted(
                valuation + ((group_var, value),), key=lambda p: p[0].name
            ))
            out[merged] = probability
    return out


def _join_valuations(
    left: Dict[Valuation, float], right: Dict[Valuation, float]
) -> Dict[Valuation, float]:
    """Cartesian join of disjoint-variable valuation maps."""
    joined: Dict[Valuation, float] = {}
    for valuation_l, prob_l in left.items():
        for valuation_r, prob_r in right.items():
            merged = tuple(sorted(
                valuation_l + valuation_r, key=lambda p: p[0].name
            ))
            joined[merged] = prob_l * prob_r
    return joined


def _evaluate(query: ConjunctiveQuery, db: ProbabilisticDatabase) -> float:
    if not query.atoms:
        return 1.0 if _ground_predicates_hold(query.predicates) else 0.0
    result = 1.0
    for component in query.connected_components():
        if not component.variables:
            result *= _ground_probability(component, db)
        else:
            result *= _component_probability(component, db)
        if result == 0.0:
            return 0.0
    return result


def _ground_probability(
    component: ConjunctiveQuery, db: ProbabilisticDatabase
) -> float:
    """Probability of a conjunction of ground sub-goals.

    Distinct ground tuples are independent; the canonical form already
    deduplicated repeated atoms; a tuple asserted both positively and
    negatively makes the conjunction false.
    """
    if not _ground_predicates_hold(component.predicates):
        return 0.0
    positive = {( a.relation, _row(a)) for a in component.positive_atoms}
    negative = {( a.relation, _row(a)) for a in component.negative_atoms}
    if positive & negative:
        return 0.0
    result = 1.0
    for name, row in positive:
        result *= float(db.probability(name, row))
    for name, row in negative:
        result *= 1.0 - float(db.probability(name, row))
    return result


def _component_probability(
    component: ConjunctiveQuery, db: ProbabilisticDatabase
) -> float:
    """``1 - prod_a (1 - p(f[a/x]))`` for a maximal variable ``x``."""
    root = _pick_root(component)
    inner = 1.0
    for value in _candidates(component, root, db):
        constant = Constant(value)
        branch = component.substitute(root, constant)
        branch_prob = _evaluate(branch.drop_trivial_predicates(), db)
        inner *= 1.0 - branch_prob
        if inner == 0.0:
            break
    return 1.0 - inner


def _pick_root(component: ConjunctiveQuery) -> Variable:
    positive_view = component.positive_part()
    roots = maximal_variables(positive_view)
    for root in roots:
        if positive_view.subgoal_map[root] == frozenset(
            range(len(positive_view.atoms))
        ):
            return root
    # For a connected hierarchical query a maximal variable occurs in
    # every sub-goal; reaching here means the precondition was violated.
    raise UnsupportedQueryError(
        f"no root variable found for component {component}"
    )


def _candidates(
    component: ConjunctiveQuery, root: Variable, db: ProbabilisticDatabase
):
    """Domain values that can make every sub-goal true.

    Values outside the intersection give branch probability 0 and
    contribute a factor of 1, so skipping them is sound.  Negated
    sub-goals do *not* restrict the candidate set (their tuples need
    not exist) — but if the root occurs only in negated sub-goals the
    query was not range-restricted to begin with.
    """
    candidate_set: Optional[Set] = None
    for atom in component.atoms:
        if atom.negated or root not in atom.variables:
            continue
        relation = db.relation(atom.relation)
        for position in atom.positions_of(root):
            values = relation.values_at(position)
            candidate_set = values if candidate_set is None else candidate_set & values
            if not candidate_set:
                return []
    return sorted(candidate_set or [], key=lambda v: (type(v).__name__, str(v)))


def _ground_predicates_hold(predicates: Sequence[Comparison]) -> bool:
    return all(map(constants_order_consistent, predicates))


def _row(atom: Atom):
    return tuple(t.value for t in atom.terms if isinstance(t, Constant))
