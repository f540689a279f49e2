"""Lifted evaluation: the executable PTIME side of the dichotomy.

This engine evaluates conjunctive queries — *including self-joins* — by
recursively decomposing them with four rules, mirroring how the paper's
coverage-expansion algorithm (Sections 3.2–3.4) exploits independence:

1. **Independent union / join**: sub-queries that can never share a
   ground tuple are probabilistically independent.  Sharing is decided
   semantically: two atoms with the same relation symbol may share a
   tuple iff equating their argument positions is consistent with both
   sides' order predicates (:func:`may_share_tuple`).
2. **Inclusion–exclusion**: dependent connected components ``c1..ck`` of
   a CQ satisfy ``P(∧ c_i) = Σ_{∅≠S} (-1)^{|S|+1} P(∨_S c_i)``, pushing
   the work into unions.
3. **Separators**: a choice of one variable per disjunct, occurring in
   every sub-goal of its disjunct, such that instances for different
   domain values can never share a tuple.  Then
   ``P = 1 - Π_a (1 - P(Q[a]))`` — Equation (3) generalized.
4. **Order refinement** (the paper's canonical coverage ``C<``, applied
   lazily): when no separator exists, split on an undetermined variable
   pair ``(u, v)`` of a self-joined atom into ``u<v ∨ u=v ∨ u>v``
   branches.  This is what makes queries like ``R(x,y), R(y,x)`` or the
   footnote-1 4-ary self-joins evaluable (Example 3.5).

When no rule applies the engine raises :class:`UnsafeQueryError`; by
Theorem 1.8 such queries are #P-hard, and the router falls back to the
exact lineage oracle or Monte Carlo.  Running the same recursion
without a database (:func:`is_safe_query`) yields a purely syntactic
safety decision used to cross-check the paper's classifier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom
from ..core.orders import OrderConstraints
from ..core.predicates import Comparison, constants_order_consistent
from ..core.query import ConjunctiveQuery, canonical_string
from ..core.terms import Constant, Term, Variable
from ..core.union import (
    AnyQuery,
    disjuncts_of,
    minimize_ucq_in_dnf,
    shatter_constants,
)
from ..db.database import ProbabilisticDatabase
from .base import Engine, UnsafeQueryError, UnsupportedQueryError

#: Hard recursion bound: a safe query never comes close (depth is
#: bounded by variables + refinable pairs), so hitting it indicates a bug.
MAX_DEPTH = 200


class LiftedEngine(Engine):
    """Exact PTIME evaluation of safe queries — self-joins and unions.

    A :class:`~repro.core.union.UnionQuery` enters the solver's union
    recursion directly (its inclusion–exclusion path was built for
    exactly this), so safe UCQs with self-joins evaluate exactly in
    PTIME.  ``shatter`` pre-splits variable/constant positions of
    self-joined relations (:func:`~repro.core.union.shatter_constants`)
    so the safety decision and the evaluation see the same shattered
    disjunct list; ``minimize_queries`` controls the containment-based
    DNF minimization inside the recursion.
    """

    name = "lifted"

    def __init__(
        self, minimize_queries: bool = True, shatter: bool = True
    ) -> None:
        self.minimize_queries = minimize_queries
        self.shatter = shatter

    def supports(self, query: AnyQuery) -> Optional[str]:
        """Syntactic precondition: every disjunct range-restricted.

        Safety itself is decided by :meth:`prepare` (it raises
        :class:`UnsafeQueryError`, a different failure class: the query
        is *beyond PTIME*, not merely outside this engine's syntax).
        """
        for disjunct in disjuncts_of(query):
            boolean = disjunct.boolean()
            if not boolean.is_range_restricted():
                loose = [
                    v.name for v in boolean.variables
                    if all(v not in a.variables for a in boolean.positive_atoms)
                ]
                return (
                    f"not range-restricted: variables {loose} occur only "
                    f"in negated sub-goals or predicates"
                )
        return None

    def prepare(self, query: AnyQuery) -> None:
        """Admission = the syntactic safety decision (database-free).

        For an answer-tuple query pass the generic residual, exactly
        as :meth:`answers` would check it.
        """
        reason = self.supports(query)
        if reason is not None:
            raise UnsupportedQueryError(f"{reason}: {query}")
        report = is_safe_query(
            query, self.minimize_queries, shatter=self.shatter
        )
        if not report.safe:
            raise UnsafeQueryError(
                f"no PTIME decomposition for {query} "
                f"(stuck on {report.stuck_on})",
                query=query,
            )

    def _boolean_disjuncts(self, query: AnyQuery) -> List[ConjunctiveQuery]:
        """The checked (and, when enabled, shattered) disjunct list the
        solver evaluates — identical to what the safety decision saw."""
        reason = self.supports(query)
        if reason is not None:
            raise UnsupportedQueryError(f"{reason}: {query}")
        disjuncts = [d.boolean() for d in disjuncts_of(query)]
        if self.shatter:
            disjuncts = shatter_constants(disjuncts)
        return disjuncts

    def probability(
        self, query: AnyQuery, db: ProbabilisticDatabase
    ) -> float:
        solver = _Solver(db, minimize_queries=self.minimize_queries)
        return solver.union(self._boolean_disjuncts(query), 0)

    def answers(self, query, db, k=None, assume_safe=False):
        """Residual-query evaluation with the decomposition shared.

        The residual queries of all answers are one query up to the
        head constants, so (a) safety is decided *once* on the generic
        residual instead of once per answer (``assume_safe`` skips even
        that — the router passes it after its own cached check), and
        (b) a single solver with a canonical-form memo table evaluates
        all residuals — sub-unions that do not depend on the head
        constants (shared components, common separator instances) are
        computed once and reused across answers.  Unions bind each
        disjunct's own head per answer; disjuncts inconsistent with an
        answer's constants drop out of that answer's residual union.
        """
        if query.head is None:
            return super().answers(query, db, k)
        reason = self.supports(query)
        if reason is not None:
            raise UnsupportedQueryError(f"{reason}: {query}")
        if not assume_safe:
            from .safe_plan import generic_residual

            report = is_safe_query(
                generic_residual(query), self.minimize_queries,
                shatter=self.shatter,
            )
            if not report.safe:
                raise UnsafeQueryError(
                    f"no PTIME decomposition for the residual of {query} "
                    f"(stuck on {report.stuck_on})",
                    query=query,
                )
        from ..lineage.grounding import answer_tuples
        from .base import rank_answers

        solver = _Solver(
            db, minimize_queries=self.minimize_queries, memoize=True
        )
        results = []
        for answer in answer_tuples(query, db):
            bound = [d for d in disjuncts_of(query.bind_head(answer))]
            if self.shatter:
                bound = shatter_constants(bound)
            results.append((answer, solver.union(bound, 0)))
        return rank_answers(results, k)


@dataclass
class SafetyReport:
    """Outcome of the syntactic safety decision."""

    safe: bool
    #: For unsafe queries: the sub-query on which decomposition got stuck.
    stuck_on: Optional[str] = None
    #: Decomposition statistics (rule application counts).
    rule_counts: Dict[str, int] = field(default_factory=dict)


def is_safe_query(
    query: AnyQuery, minimize_queries: bool = True, shatter: bool = True
) -> SafetyReport:
    """Decide whether the lifted rules fully decompose ``query``.

    Accepts a single CQ or a union; a union enters the solver's union
    recursion directly.  Runs the evaluation recursion with a symbolic
    one-constant domain; success means the query admits a PTIME plan,
    failure (by the dichotomy) that it is #P-hard.  ``shatter``
    pre-splits variable/constant positions exactly as the engine's
    evaluation does, so the decision and the evaluation agree.
    """
    disjuncts = [d.boolean() for d in disjuncts_of(query)]
    for disjunct in disjuncts:
        _check_query(disjunct)
    if shatter:
        disjuncts = shatter_constants(disjuncts)
    solver = _Solver(None, minimize_queries=minimize_queries)
    try:
        solver.union(disjuncts, 0)
    except UnsafeQueryError as err:
        return SafetyReport(
            safe=False,
            stuck_on=str(err.query) if err.query is not None else str(err),
            rule_counts=dict(solver.rule_counts),
        )
    return SafetyReport(safe=True, rule_counts=dict(solver.rule_counts))


def _check_query(query: ConjunctiveQuery) -> None:
    if not query.is_range_restricted():
        raise UnsupportedQueryError(f"query is not range-restricted: {query}")


# ----------------------------------------------------------------------
# Tuple-sharing tests (semantic independence)
# ----------------------------------------------------------------------


def may_share_tuple(
    atom1: Atom,
    constraints1: Sequence[Comparison],
    atom2: Atom,
    constraints2: Sequence[Comparison],
    extra: Sequence[Comparison] = (),
) -> bool:
    """Can the two atoms be grounded to the same tuple?

    The caller must supply the two sides on *disjoint variable spaces*
    (rename one side first).  The test conjoins both constraint sets,
    the positional equalities, and ``extra`` (used for the separator's
    ``x != x'`` side condition), and checks satisfiability over a dense
    ordered domain.
    """
    if atom1.relation != atom2.relation or atom1.arity != atom2.arity:
        return False
    equations = [
        Comparison("=", t1, t2) for t1, t2 in zip(atom1.terms, atom2.terms)
    ]
    system = OrderConstraints(
        tuple(constraints1) + tuple(constraints2) + tuple(equations) + tuple(extra)
    )
    return system.is_satisfiable()


def queries_independent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """True when no atom of ``q1`` can share a ground tuple with ``q2``.

    Sound test for probabilistic independence of the two (variable-
    disjoint or not) sub-queries under tuple-independence: events of
    disjoint tuple sets are independent.
    """
    shared_symbols = set(a.relation for a in q1.atoms) & set(
        a.relation for a in q2.atoms
    )
    if not shared_symbols:
        return True
    renamed, renaming = q2.rename_apart(q1.variables, suffix="_i")
    for atom1 in q1.atoms:
        if atom1.relation not in shared_symbols:
            continue
        for atom2 in renamed.atoms:
            if atom2.relation != atom1.relation:
                continue
            if may_share_tuple(
                atom1, q1.predicates, atom2, renamed.predicates
            ):
                return False
    return True


# ----------------------------------------------------------------------
# The solver
# ----------------------------------------------------------------------


class _Solver:
    """Shared recursion for numeric evaluation and safety decision.

    ``db is None`` switches to decision mode: separator recursion uses a
    single fresh symbolic constant and ground look-ups return 0.5.
    """

    def __init__(
        self,
        db: Optional[ProbabilisticDatabase],
        minimize_queries: bool = True,
        memoize: bool = False,
    ) -> None:
        self.db = db
        self.minimize_queries = minimize_queries
        self.rule_counts: Dict[str, int] = {}
        self._fresh_counter = 0
        #: Canonical keys of unions on the current recursion path; a
        #: repeat means inclusion–exclusion is going in circles, i.e.
        #: the decomposition makes no progress on this union.
        self._in_progress: Set[frozenset] = set()
        #: With ``memoize`` (used by ``answers``): completed union
        #: results keyed canonically, shared across residual queries.
        #: Sound because the canonical string is a faithful rendering —
        #: equal keys mean equal-up-to-renaming unions, which have
        #: equal probability on the solver's fixed database.
        self._memo: Optional[Dict[frozenset, float]] = {} if memoize else None
        self.memo_hits = 0

    def _count(self, rule: str) -> None:
        self.rule_counts[rule] = self.rule_counts.get(rule, 0) + 1

    # -- union of CQs ---------------------------------------------------

    def union(self, disjuncts: Sequence[ConjunctiveQuery], depth: int) -> float:
        if depth > MAX_DEPTH:
            raise UnsafeQueryError(
                "recursion limit exceeded (engine bug or adversarial query)"
            )
        normalized = self._normalize(disjuncts)
        if normalized is None:  # some disjunct is certainly true
            return 1.0
        if not normalized:
            return 0.0
        memo_key: Optional[frozenset] = None
        if self._memo is not None:
            memo_key = _canonical_key(normalized)
            cached = self._memo.get(memo_key)
            if cached is not None:
                self.memo_hits += 1
                return cached
        result = self._union_normalized(normalized, depth)
        if memo_key is not None:
            self._memo[memo_key] = result
        return result

    def _union_normalized(
        self, normalized: List[ConjunctiveQuery], depth: int
    ) -> float:
        if len(normalized) == 1:
            return self.cq(normalized[0], depth)

        groups = _dependence_groups(normalized)
        if len(groups) > 1:
            self._count("independent-union")
            result = 1.0
            for group in groups:
                result *= 1.0 - self.union(group, depth + 1)
            return 1.0 - result

        separator = self._find_separator(normalized)
        if separator is not None:
            self._count("union-separator")
            return self._apply_separator(normalized, separator, depth)

        key = _canonical_key(normalized)
        if key not in self._in_progress:
            self._in_progress.add(key)
            try:
                return self._union_inclusion_exclusion(normalized, depth)
            except UnsafeQueryError:
                pass  # fall through to refinement
            finally:
                self._in_progress.discard(key)

        refined = self._refine(normalized)
        if refined is not None:
            self._count("refinement")
            return self.union(refined, depth + 1)

        raise UnsafeQueryError(
            f"no PTIME decomposition for union "
            f"{' | '.join(str(d) for d in normalized)}",
            query=normalized[0],
        )

    def _union_inclusion_exclusion(
        self, disjuncts: Sequence[ConjunctiveQuery], depth: int
    ) -> float:
        """``P(∨ d_i) = Σ_{∅≠S} (-1)^{|S|+1} P(∧_S d_i)``.

        Each conjunction (over renamed-apart copies) is a single CQ
        whose minimization may fold shared structure — the step that
        gives this rule traction.  Cycles through the same union are
        cut by the caller's ``_in_progress`` guard.
        """
        self._count("union-inclusion-exclusion")
        total = 0.0
        for size in range(1, len(disjuncts) + 1):
            sign = 1.0 if size % 2 == 1 else -1.0
            for subset in itertools.combinations(disjuncts, size):
                total += sign * self.union([_conjoin_apart(subset)], depth + 1)
        return total

    # -- single CQ ------------------------------------------------------

    def cq(self, q: ConjunctiveQuery, depth: int) -> float:
        if depth > MAX_DEPTH:
            raise UnsafeQueryError("recursion limit exceeded")
        if not q.variables:
            self._count("ground")
            return self._ground(q)

        components = q.connected_components()
        if len(components) > 1:
            return self._components(components, depth)

        separator = self._find_separator([q])
        if separator is not None:
            self._count("separator")
            return self._apply_separator([q], separator, depth)

        refined = self._refine([q])
        if refined is not None:
            self._count("refinement")
            return self.union(refined, depth + 1)

        raise UnsafeQueryError(
            f"no PTIME decomposition for {q}", query=q
        )

    def _components(
        self, components: List[ConjunctiveQuery], depth: int
    ) -> float:
        groups = _dependence_groups(components)
        result = 1.0
        for group in groups:
            if len(group) == 1:
                self._count("independent-join")
                factor = self.cq(group[0], depth + 1)
            else:
                # Inclusion–exclusion: P(∧) = Σ_{∅≠S} (-1)^{|S|+1} P(∨_S).
                self._count("inclusion-exclusion")
                factor = 0.0
                for size in range(1, len(group) + 1):
                    sign = 1.0 if size % 2 == 1 else -1.0
                    for subset in itertools.combinations(group, size):
                        factor += sign * self.union(list(subset), depth + 1)
            result *= factor
            if result == 0.0 and self.db is not None:
                return 0.0
        return result

    # -- normalization ---------------------------------------------------

    def _normalize(
        self, disjuncts: Sequence[ConjunctiveQuery]
    ) -> Optional[List[ConjunctiveQuery]]:
        """Minimize, drop unsatisfiable and redundant disjuncts.

        Delegates to the shared UCQ transform
        :func:`~repro.core.union.minimize_ucq_in_dnf`.  Returns None
        when some disjunct is trivially true.
        """
        kept = minimize_ucq_in_dnf(
            disjuncts, minimize_each=self.minimize_queries
        )
        if any(not d.atoms for d in kept):
            return None
        return kept

    # -- separators -------------------------------------------------------

    def _find_separator(
        self, disjuncts: Sequence[ConjunctiveQuery]
    ) -> Optional[List[Variable]]:
        """A choice of root variable per disjunct making instances for
        distinct domain values tuple-disjoint."""
        per_disjunct: List[List[Variable]] = []
        for disjunct in disjuncts:
            all_goals = frozenset(range(len(disjunct.atoms)))
            roots = [
                v for v in disjunct.variables
                if disjunct.subgoal_map[v] == all_goals
            ]
            if not roots:
                return None
            per_disjunct.append(roots)
        for choice in itertools.product(*per_disjunct):
            if self._separator_ok(disjuncts, choice):
                return list(choice)
        return None

    def _separator_ok(
        self,
        disjuncts: Sequence[ConjunctiveQuery],
        choice: Sequence[Variable],
    ) -> bool:
        """No two instances (for different values) may share a tuple."""
        for i, d1 in enumerate(disjuncts):
            for j, d2 in enumerate(disjuncts):
                if j < i:
                    continue
                renamed, renaming = d2.rename_apart(d1.variables, suffix="_s")
                sep1 = choice[i]
                sep2_term = renaming.apply(choice[j])
                if not isinstance(sep2_term, Variable):  # pragma: no cover
                    return False
                distinct = Comparison("!=", sep1, sep2_term)
                for atom1 in d1.atoms:
                    for atom2 in renamed.atoms:
                        if atom1.relation != atom2.relation:
                            continue
                        if may_share_tuple(
                            atom1, d1.predicates,
                            atom2, renamed.predicates,
                            extra=(distinct,),
                        ):
                            return False
        return True

    def _apply_separator(
        self,
        disjuncts: Sequence[ConjunctiveQuery],
        separator: Sequence[Variable],
        depth: int,
    ) -> float:
        if self.db is None:
            # Decision mode: one fresh symbolic constant represents the
            # generic domain element.
            self._fresh_counter += 1
            fresh = Constant(f"@sep{self._fresh_counter}")
            instance = [
                d.substitute(x, fresh) for d, x in zip(disjuncts, separator)
            ]
            self.union(instance, depth + 1)
            return 0.5
        domain: Set = set()
        for disjunct, x in zip(disjuncts, separator):
            domain |= self._candidates(disjunct, x)
        result = 1.0
        for value in sorted(domain, key=lambda v: (type(v).__name__, str(v))):
            constant = Constant(value)
            instance = [
                d.substitute(x, constant) for d, x in zip(disjuncts, separator)
            ]
            result *= 1.0 - self.union(instance, depth + 1)
            if result == 0.0:
                break
        return 1.0 - result

    def _candidates(self, disjunct: ConjunctiveQuery, x: Variable) -> Set:
        """Domain values for which the instance can possibly be true."""
        assert self.db is not None
        candidates: Optional[Set] = None
        for atom in disjunct.atoms:
            if atom.negated or x not in atom.variables:
                continue
            relation = self.db.relation(atom.relation)
            for position in atom.positions_of(x):
                values = relation.values_at(position)
                candidates = values if candidates is None else candidates & values
                if not candidates:
                    return set()
        return candidates or set()

    # -- refinement (lazy canonical coverage) ------------------------------

    def _refine(
        self, disjuncts: Sequence[ConjunctiveQuery]
    ) -> Optional[List[ConjunctiveQuery]]:
        """Split one disjunct on an undetermined co-occurring pair.

        Only pairs inside atoms of *shared* relation symbols can unblock
        a separator, so only those are tried.
        """
        symbol_count: Dict[str, int] = {}
        for disjunct in disjuncts:
            for atom in disjunct.atoms:
                symbol_count[atom.relation] = symbol_count.get(atom.relation, 0) + 1
        for index, disjunct in enumerate(disjuncts):
            pair = _undetermined_pair(disjunct, symbol_count)
            if pair is None:
                continue
            u, v = pair
            branches = _trichotomy_branches(disjunct, u, v)
            refined = list(disjuncts)
            refined[index: index + 1] = branches
            return refined
        return None

    # -- ground probabilities ----------------------------------------------

    def _ground(self, q: ConjunctiveQuery) -> float:
        # All terms are constants here.
        if not all(map(constants_order_consistent, q.predicates)):
            return 0.0
        if self.db is None:
            return 0.5
        positive = {(a.relation, _ground_row(a)) for a in q.positive_atoms}
        negative = {(a.relation, _ground_row(a)) for a in q.negative_atoms}
        if positive & negative:
            return 0.0
        result = 1.0
        for name, row in positive:
            result *= float(self.db.probability(name, row))
        for name, row in negative:
            result *= 1.0 - float(self.db.probability(name, row))
        return result


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _conjoin_apart(queries: Sequence[ConjunctiveQuery]) -> ConjunctiveQuery:
    """Conjunction of queries after renaming them variable-disjoint."""
    result = queries[0]
    taken = list(result.variables)
    for query in queries[1:]:
        renamed, _ = query.rename_apart(taken, suffix="_j")
        taken.extend(renamed.variables)
        result = result.conjoin(renamed)
    return result


def _canonical_key(queries: Sequence[ConjunctiveQuery]) -> frozenset:
    return frozenset(canonical_string(q) for q in queries)


def _dependence_groups(
    queries: Sequence[ConjunctiveQuery],
) -> List[List[ConjunctiveQuery]]:
    """Partition queries into groups; distinct groups are independent."""
    n = len(queries)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if find(i) != find(j) and not queries_independent(queries[i], queries[j]):
                parent[find(i)] = find(j)
    groups: Dict[int, List[ConjunctiveQuery]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(queries[i])
    return list(groups.values())


def _undetermined_pair(
    disjunct: ConjunctiveQuery, symbol_count: Dict[str, int]
) -> Optional[Tuple[Term, Term]]:
    constraints = disjunct.order_constraints
    for atom in disjunct.atoms:
        if symbol_count.get(atom.relation, 0) < 2:
            continue
        terms = list(dict.fromkeys(atom.terms))
        for a, b in itertools.combinations(terms, 2):
            if isinstance(a, Constant) and isinstance(b, Constant):
                continue
            determined = any(
                constraints.entails(pred)
                for pred in (
                    Comparison("<", a, b),
                    Comparison("=", a, b),
                    Comparison("<", b, a),
                )
            )
            if not determined:
                return (a, b)
    return None


def _trichotomy_branches(
    disjunct: ConjunctiveQuery, u: Term, v: Term
) -> List[ConjunctiveQuery]:
    """``q ≡ q,u<v ∨ q[u:=v] ∨ q,v<u`` — one canonical-coverage split."""
    less = ConjunctiveQuery(
        disjunct.atoms, disjunct.predicates + (Comparison("<", u, v),)
    )
    greater = ConjunctiveQuery(
        disjunct.atoms, disjunct.predicates + (Comparison("<", v, u),)
    )
    if isinstance(u, Variable):
        equal = disjunct.substitute(u, v)
    elif isinstance(v, Variable):
        equal = disjunct.substitute(v, u)
    else:  # two constants: never reached (filtered by caller)
        equal = disjunct
    return [less, equal, greater]


def _ground_row(atom: Atom) -> Tuple:
    return tuple(term.value for term in atom.terms)
