"""Decision procedures for conjunctions of order constraints.

Strict coverages (Section 2.1) attach ``<``/``=``/``!=`` predicates to
queries; deciding which covers are satisfiable and which are redundant
requires reasoning about conjunctions of such atomic constraints over a
dense totally ordered domain.  This module implements:

* satisfiability (union-find for ``=``, cycle detection for ``<``),
* entailment of an atomic predicate from a constraint set,
* the *order type* of a ground tuple (used by the ranking rewrite).

The domain is treated as dense and unbounded (the rationals), which is
sound for query analysis: the paper's complexity statements hold for
arbitrarily large ordered domains.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .predicates import Comparison, value_less
from .terms import Constant, Term, Variable


class _UnionFind:
    """Union-find over terms with path compression."""

    def __init__(self) -> None:
        self._parent: Dict[Term, Term] = {}

    def find(self, term: Term) -> Term:
        parent = self._parent.setdefault(term, term)
        if parent is term or parent == term:
            return parent
        root = self.find(parent)
        self._parent[term] = root
        return root

    def union(self, a: Term, b: Term) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return
        # Prefer constants as representatives so classes expose their value.
        if isinstance(root_a, Constant):
            self._parent[root_b] = root_a
        else:
            self._parent[root_a] = root_b

    def classes(self) -> Dict[Term, List[Term]]:
        groups: Dict[Term, List[Term]] = {}
        for term in list(self._parent):
            groups.setdefault(self.find(term), []).append(term)
        return groups


class OrderConstraints:
    """A conjunction of atomic order constraints with decision methods.

    The structure is cheap to copy (:meth:`extended`), so exploration of
    alternative covers can branch without mutation.
    """

    def __init__(self, predicates: Iterable[Comparison] = ()) -> None:
        self._predicates: Tuple[Comparison, ...] = tuple(predicates)
        self._solution: Optional[_Solution] = None
        self._solved = False

    @property
    def predicates(self) -> Tuple[Comparison, ...]:
        """The atomic constraints in insertion order."""
        return self._predicates

    def extended(self, *more: Comparison) -> "OrderConstraints":
        """A new constraint set with ``more`` conjoined."""
        return OrderConstraints(self._predicates + tuple(more))

    def _solve(self) -> Optional["_Solution"]:
        if self._solved:
            return self._solution
        self._solved = True
        self._solution = _Solution.build(self._predicates)
        return self._solution

    def is_satisfiable(self) -> bool:
        """True iff some assignment over a dense ordered domain satisfies all."""
        return self._solve() is not None

    def entails(self, pred: Comparison) -> bool:
        """True iff every satisfying assignment also satisfies ``pred``.

        Implemented as: the conjunction with each disjunct of the
        negation of ``pred`` is unsatisfiable.  An unsatisfiable
        constraint set entails everything.
        """
        if not self.is_satisfiable():
            return True
        return all(
            not self.extended(disjunct).is_satisfiable()
            for disjunct in pred.negation_disjuncts()
        )

    def equivalent_terms(self, a: Term, b: Term) -> bool:
        """True iff the constraints force ``a = b``."""
        return self.entails(Comparison("=", a, b))

    def satisfied_by(self, assignment: Dict[Variable, object]) -> bool:
        """Evaluate all predicates under a concrete variable assignment."""
        def value(term: Term):
            if isinstance(term, Constant):
                return term.value
            return assignment[term]

        return all(
            pred.evaluate(value(pred.left), value(pred.right))
            for pred in self._predicates
        )

    def __iter__(self):
        return iter(self._predicates)

    def __len__(self) -> int:
        return len(self._predicates)

    def __str__(self) -> str:
        return ", ".join(str(p) for p in self._predicates) or "(true)"

    def __repr__(self) -> str:
        return f"OrderConstraints({self})"


class _Solution:
    """Internal normal form: equivalence classes plus a strict order DAG."""

    def __init__(
        self,
        representative: Dict[Term, Term],
        less_edges: Set[Tuple[Term, Term]],
    ) -> None:
        self.representative = representative
        self.less_edges = less_edges

    @staticmethod
    def build(predicates: Sequence[Comparison]) -> Optional["_Solution"]:
        uf = _UnionFind()
        terms: Set[Term] = set()
        for pred in predicates:
            terms.update(pred.terms)
        for term in terms:
            uf.find(term)

        # 1. Merge equalities; reject constant clashes.
        for pred in predicates:
            if pred.op == "=":
                uf.union(pred.left, pred.right)
        rep = {t: uf.find(t) for t in terms}
        for group in uf.classes().values():
            constants = {t for t in group if isinstance(t, Constant)}
            if len(constants) > 1:
                return None

        # 2. Strict edges between representatives, including the true
        #    order among the constants that appear.
        less: Set[Tuple[Term, Term]] = set()
        for pred in predicates:
            if pred.op == "<":
                less.add((rep[pred.left], rep[pred.right]))
        constants = [t for t in terms if isinstance(t, Constant)]
        for low in constants:
            for high in constants:
                if value_less(low.value, high.value) and rep[low] != rep[high]:
                    less.add((rep[low], rep[high]))

        # 3. No strict cycle may exist (a < ... < a is unsatisfiable).
        if _has_cycle(less):
            return None

        # 4. Disequalities must not connect merged classes.
        for pred in predicates:
            if pred.op == "!=" and rep[pred.left] == rep[pred.right]:
                return None
        return _Solution(rep, less)


def _has_cycle(edges: Set[Tuple[Term, Term]]) -> bool:
    graph: Dict[Term, List[Term]] = {}
    for src, dst in edges:
        graph.setdefault(src, []).append(dst)
        graph.setdefault(dst, [])
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    for start in graph:
        if color[start] != WHITE:
            continue
        stack: List[Tuple[Term, int]] = [(start, 0)]
        color[start] = GRAY
        while stack:
            node, idx = stack[-1]
            neighbours = graph[node]
            if idx == len(neighbours):
                stack.pop()
                color[node] = BLACK
                continue
            stack[-1] = (node, idx + 1)
            nxt = neighbours[idx]
            if color[nxt] == GRAY:
                return True
            if color[nxt] == WHITE:
                color[nxt] = GRAY
                stack.append((nxt, 0))
    return False


def order_type(values: Sequence) -> Tuple[str, ...]:
    """The order type of a concrete tuple, as canonical tokens.

    The order type records, for every pair of positions ``i < j``,
    whether ``values[i] < values[j]``, ``=``, or ``>``.  Two tuples with
    the same order type satisfy exactly the same restricted arithmetic
    predicates over their positions; this is the semantic basis of the
    ranking rewrite (``repro.engines.ranking``).

    >>> order_type((3, 3, 5))
    ('0=1', '0<2', '1<2')
    """
    tokens: List[str] = []
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            left, right = values[i], values[j]
            if left == right:
                tokens.append(f"{i}={j}")
            elif value_less(left, right):
                tokens.append(f"{i}<{j}")
            else:
                tokens.append(f"{i}>{j}")
    return tuple(tokens)
