"""Bottom-up OBDD compilation of lineage DNFs.

A reduced ordered binary decision diagram over the lineage's tuple
events: every path from the root tests events in one global order, and
isomorphic subgraphs are shared through a unique table.  Compilation is
the classical Apply algorithm — each clause becomes a literal chain,
clauses are OR-folded pairwise (balanced, so intermediate results stay
small) — with a memoized Apply cache.

The payoff over the Shannon-expansion WMC oracle is the *artifact*:
once compiled, exact probability is a single linear pass over the
nodes, repeatable under changed tuple marginals without recompiling,
and cacheable across repeated queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.query import ConjunctiveQuery
from ..db.database import TupleKey
from ..lineage.boolean import Lineage
from .circuit import BudgetExceeded, Circuit, NodeId
from .ordering import make_order

#: Terminal ids.
FALSE = 0
TRUE = 1


class OBDD:
    """A reduced OBDD over a fixed event order.

    Nodes are ``(level, low, high)`` triples interned in a unique
    table; ids 0/1 are the terminals.  ``level`` indexes into
    :attr:`order`.
    """

    def __init__(
        self, order: Sequence[TupleKey], max_nodes: Optional[int] = None
    ) -> None:
        self.order: List[TupleKey] = list(order)
        self.level_of: Dict[TupleKey, int] = {
            event: i for i, event in enumerate(self.order)
        }
        #: node id -> (level, low, high); terminals hold None.
        self._nodes: List[Optional[Tuple[int, int, int]]] = [None, None]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._apply_cache: Dict[Tuple, int] = {}
        self._reachable: Dict[int, List[int]] = {}
        self.max_nodes = max_nodes
        self.apply_steps = 0

    # ------------------------------------------------------------------
    # Node store
    # ------------------------------------------------------------------

    def mk(self, level: int, low: int, high: int) -> int:
        """The reduced node ``if order[level] then high else low``."""
        if low == high:
            return low
        key = (level, low, high)
        existing = self._unique.get(key)
        if existing is not None:
            return existing
        if self.max_nodes is not None and len(self._nodes) >= self.max_nodes + 2:
            raise BudgetExceeded(
                f"OBDD exceeded the {self.max_nodes}-node budget"
            )
        node = len(self._nodes)
        self._nodes.append(key)
        self._unique[key] = node
        return node

    def literal(self, event: TupleKey, polarity: bool = True) -> int:
        level = self.level_of[event]
        return self.mk(level, FALSE, TRUE) if polarity else self.mk(
            level, TRUE, FALSE
        )

    def _level(self, node: int) -> int:
        payload = self._nodes[node]
        return len(self.order) if payload is None else payload[0]

    def _branches(self, node: int) -> Tuple[int, int]:
        _, low, high = self._nodes[node]
        return low, high

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # Apply
    # ------------------------------------------------------------------

    def apply_or(self, f: int, g: int) -> int:
        return self._apply("or", f, g)

    def apply_and(self, f: int, g: int) -> int:
        return self._apply("and", f, g)

    @staticmethod
    def _terminal(op: str, f: int, g: int) -> Optional[int]:
        if f == g:
            return f
        if op == "or":
            if TRUE in (f, g):
                return TRUE
            if f == FALSE:
                return g
            if g == FALSE:
                return f
        else:
            if FALSE in (f, g):
                return FALSE
            if f == TRUE:
                return g
            if g == TRUE:
                return f
        return None

    def _apply(self, op: str, f: int, g: int) -> int:
        """Iterative memoized Apply (no recursion-depth ceiling)."""
        cache = self._apply_cache

        def norm(a: int, b: int) -> Tuple:
            return (op, a, b) if a <= b else (op, b, a)

        root_key = norm(f, g)
        stack: List[Tuple[int, int]] = [(f, g)]
        while stack:
            pair = stack[-1]
            key = norm(*pair)
            if key in cache:
                stack.pop()
                continue
            terminal = self._terminal(op, *pair)
            if terminal is not None:
                cache[key] = terminal
                stack.pop()
                continue
            self.apply_steps += 1
            a, b = pair
            level = min(self._level(a), self._level(b))
            a0, a1 = (
                self._branches(a) if self._level(a) == level else (a, a)
            )
            b0, b1 = (
                self._branches(b) if self._level(b) == level else (b, b)
            )
            key0, key1 = norm(a0, b0), norm(a1, b1)
            low, high = cache.get(key0), cache.get(key1)
            if low is not None and high is not None:
                cache[key] = self.mk(level, low, high)
                stack.pop()
            else:
                if high is None:
                    stack.append((a1, b1))
                if low is None:
                    stack.append((a0, b0))
        return cache[root_key]

    # ------------------------------------------------------------------
    # Queries over a compiled root
    # ------------------------------------------------------------------

    def reachable(self, root: int) -> List[int]:
        """Nodes under ``root``, children before parents.

        Memoized per root (a node never changes once made), so repeated
        sweeps over one compiled root skip the walk.
        """
        cached = self._reachable.get(root)
        if cached is not None:
            return cached
        seen: Set[int] = set()
        order: List[int] = []
        stack: List[Tuple[int, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            if self._nodes[node] is not None:
                _, low, high = self._nodes[node]
                stack.extend(((high, False), (low, False)))
        self._reachable[root] = order
        return order

    def compact(self, root: int) -> int:
        """Keep only the nodes under ``root``; return its new id.

        The unique table is rebuilt over those nodes, the Apply cache is
        emptied and only the root's bottom-up order stays memoized, so
        a compiled result no longer holds on to intermediate Apply
        results.  Old ids are invalid afterwards.
        """
        order = self.reachable(root)
        mapped: Dict[int, int] = {FALSE: FALSE, TRUE: TRUE}
        nodes: List[Optional[Tuple[int, int, int]]] = [None, None]
        for node in order:
            if node in mapped:
                continue
            level, low, high = self._nodes[node]
            mapped[node] = len(nodes)
            nodes.append((level, mapped[low], mapped[high]))
        self._nodes = nodes
        self._unique = {
            key: node for node, key in enumerate(nodes) if key is not None
        }
        self._apply_cache = {}
        self._reachable = {mapped[root]: [mapped[node] for node in order]}
        return mapped[root]

    def node_count(self, root: int) -> int:
        """Decision nodes reachable from ``root`` (terminals excluded)."""
        return sum(
            1 for node in self.reachable(root) if self._nodes[node] is not None
        )

    def probability(self, root: int, weights: Mapping[TupleKey, float]):
        """Exact probability of ``root`` — one linear bottom-up pass.

        Works for any numeric weight type (floats for probabilities,
        :class:`fractions.Fraction` for exact model counting).
        """
        sample = next(iter(weights.values()), 1.0)
        one, zero = type(sample)(1), type(sample)(0)
        value: Dict[int, object] = {FALSE: zero, TRUE: one}
        for node in self.reachable(root):
            if node in value:
                continue
            level, low, high = self._nodes[node]
            weight = weights[self.order[level]]
            value[node] = weight * value[high] + (one - weight) * value[low]
        return value[root]

    def probability_batch(self, root: int, events: Sequence[TupleKey], weights):
        """Probability of ``root`` under every row of a weight matrix.

        ``weights`` is ``(batch, len(events))`` with column ``j``
        holding the marginal of ``events[j]``.  The Shannon recurrence
        ``w·P(high) + (1−w)·P(low)`` runs once per node with numpy
        vectors, so the whole batch costs one bottom-up pass.
        """
        weights = np.asarray(weights, dtype=np.float64)
        batch = weights.shape[0]
        column = {event: j for j, event in enumerate(events)}
        value: Dict[int, "np.ndarray"] = {
            FALSE: np.zeros(batch), TRUE: np.ones(batch)
        }
        for node in self.reachable(root):
            if node in value:
                continue
            level, low, high = self._nodes[node]
            weight = weights[:, column[self.order[level]]]
            value[node] = weight * value[high] + (1.0 - weight) * value[low]
        return value[root]

    def model_count(self, root: int) -> int:
        """Satisfying assignments over all events in :attr:`order`."""
        half = Fraction(1, 2)
        weights = {event: half for event in self.order}
        if not self.order:
            return 1 if root == TRUE else 0
        scaled = self.probability(root, weights) * 2 ** len(self.order)
        return int(scaled)

    def to_circuit(
        self, root: int, circuit: Optional[Circuit] = None
    ) -> Tuple[Circuit, NodeId]:
        """Lower to the shared circuit IR (d-DNNF by construction)."""
        circuit = circuit or Circuit()
        mapped: Dict[int, NodeId] = {
            FALSE: circuit.FALSE, TRUE: circuit.TRUE
        }
        for node in self.reachable(root):
            if node in mapped:
                continue
            level, low, high = self._nodes[node]
            mapped[node] = circuit.decision(
                self.order[level], mapped[high], mapped[low]
            )
        return circuit, mapped[root]


@dataclass
class CompiledOBDD:
    """The result of :func:`compile_obdd`."""

    obdd: OBDD
    root: int
    ordering: str
    #: Unique-table size at the end of compilation, before compaction
    #: (includes intermediate Apply results; ``size`` is the live result).
    peak_nodes: int = 0

    @property
    def size(self) -> int:
        return self.obdd.node_count(self.root)

    def probability(self, weights: Mapping[TupleKey, float]):
        return self.obdd.probability(self.root, weights)

    def probability_batch(self, events: Sequence[TupleKey], weights):
        """Root probability per row of a ``(batch, len(events))`` matrix."""
        return self.obdd.probability_batch(self.root, events, weights)

    def model_count(self) -> int:
        return self.obdd.model_count(self.root)


def compile_clauses(
    obdd: OBDD, clauses: Sequence[Sequence[Tuple[TupleKey, bool]]]
) -> int:
    """OR-fold the clause chains, pairwise-balanced."""
    roots: List[int] = []
    for clause in clauses:
        literals = sorted(
            clause, key=lambda lit: obdd.level_of[lit[0]], reverse=True
        )
        node = TRUE
        for event, polarity in literals:
            level = obdd.level_of[event]
            if polarity:
                node = obdd.mk(level, FALSE, node)
            else:
                node = obdd.mk(level, node, FALSE)
        roots.append(node)
    if not roots:
        return FALSE
    while len(roots) > 1:
        merged = [
            obdd.apply_or(roots[i], roots[i + 1])
            if i + 1 < len(roots) else roots[i]
            for i in range(0, len(roots), 2)
        ]
        roots = merged
    return roots[0]


def _canonical_clauses(lineage: Lineage):
    def literal_key(lit):
        (name, row), polarity = lit
        return (name, tuple((type(v).__name__, str(v)) for v in row), polarity)

    clauses = [sorted(clause, key=literal_key) for clause in lineage.clauses]
    clauses.sort(key=lambda lits: [literal_key(lit) for lit in lits])
    return clauses


def compile_obdd(
    lineage: Lineage,
    strategy: str = "auto",
    query: Optional[ConjunctiveQuery] = None,
    max_nodes: Optional[int] = None,
) -> CompiledOBDD:
    """Compile a lineage DNF into a reduced OBDD.

    ``strategy`` is an ordering name from :mod:`repro.compile.ordering`;
    the default ``auto`` uses the ``hierarchy`` order for a connected
    hierarchical ``query`` and first-appearance ``lineage`` order
    otherwise.  ``max_nodes`` bounds the unique table; exceeding it
    raises :class:`~repro.compile.circuit.BudgetExceeded`.  The result
    keeps only the nodes under its root (:meth:`OBDD.compact`).
    """
    if lineage.certainly_true:
        return CompiledOBDD(OBDD([]), TRUE, "trivial")
    if lineage.is_false:
        return CompiledOBDD(OBDD([]), FALSE, "trivial")
    name, order = make_order(lineage, strategy, query)
    obdd = OBDD(order, max_nodes=max_nodes)
    root = compile_clauses(obdd, _canonical_clauses(lineage))
    peak_nodes = len(obdd)
    return CompiledOBDD(obdd, obdd.compact(root), name, peak_nodes=peak_nodes)
