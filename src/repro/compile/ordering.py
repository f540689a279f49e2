"""Variable orderings for the OBDD compiler.

OBDD size is notoriously sensitive to the variable order.  Two
heuristics are provided, both deterministic:

* ``lineage`` — events in first-appearance order over the canonically
  sorted clauses.  Cheap, and already groups each clause's events.
* ``hierarchy`` — derived from the query's hierarchy tree
  (:mod:`repro.core.hierarchy`): events are sorted by the ground values
  of the root-to-leaf scope variables, so all events touching one
  root-variable value are contiguous.  On hierarchical queries this
  yields the linear-size OBDDs that mirror the safe plan's independence
  structure.

``make_order`` dispatches by name; ``auto`` picks ``hierarchy`` when a
hierarchical connected query is supplied and ``lineage`` otherwise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.hierarchy import HierarchyTree, is_hierarchical
from ..core.query import ConjunctiveQuery
from ..core.terms import Variable
from ..db.database import TupleKey
from ..lineage.boolean import Lineage

#: Ordering strategy names accepted by the compilers and the CLI.
STRATEGIES = ("lineage", "hierarchy", "auto")


def _event_key(event: TupleKey) -> Tuple:
    name, row = event
    return (name, tuple((type(v).__name__, str(v)) for v in row))


def _sorted_clauses(lineage: Lineage) -> List[List[TupleKey]]:
    clauses = []
    for clause in lineage.clauses:
        clauses.append(sorted({key for key, _ in clause}, key=_event_key))
    clauses.sort(key=lambda events: [_event_key(e) for e in events])
    return clauses


def lineage_order(
    lineage: Lineage, query: Optional[ConjunctiveQuery] = None
) -> List[TupleKey]:
    """Events in first-appearance order over canonically sorted clauses."""
    order: List[TupleKey] = []
    seen: Set[TupleKey] = set()
    for clause in _sorted_clauses(lineage):
        for event in clause:
            if event not in seen:
                seen.add(event)
                order.append(event)
    return order


def hierarchy_order(
    lineage: Lineage, query: Optional[ConjunctiveQuery] = None
) -> List[TupleKey]:
    """Hierarchy-guided order: group events by root-variable values.

    For a connected hierarchical query, walking the hierarchy tree
    gives each relation a scope ``⌈x⌉`` (root variables first).  An
    event's sort key is the ground value of those scope variables in
    root-to-leaf order — so all tuples sharing a root value are
    adjacent, which is exactly the independence the safe plan exploits
    and what keeps the OBDD frontier constant.

    Falls back to :func:`lineage_order` when no query is supplied or
    the query is not hierarchical/connected.
    """
    if query is None or not query.atoms:
        return lineage_order(lineage, query)
    try:
        components = query.connected_components()
    except Exception:
        return lineage_order(lineage, query)

    #: relation -> (component rank, depth rank, scope positions)
    plans: Dict[str, Tuple[int, int, Tuple[int, ...]]] = {}
    for comp_rank, component in enumerate(components):
        if not is_hierarchical(component) or not component.variables:
            continue
        try:
            tree = HierarchyTree(component)
        except ValueError:
            continue
        depth = 0
        for root in tree.roots:
            for node in root.walk():
                for index in node.subgoals:
                    atom = component.atoms[index]
                    positions = _scope_positions(atom, node.scope)
                    plans.setdefault(
                        atom.relation, (comp_rank, depth, positions)
                    )
                depth += 1
    if not plans:
        return lineage_order(lineage, query)

    def key(event: TupleKey):
        name, row = event
        plan = plans.get(name)
        if plan is None:
            return (1, (), 0, _event_key(event))
        comp_rank, depth, positions = plan
        values = tuple(
            (type(row[p]).__name__, str(row[p]))
            for p in positions if p < len(row)
        )
        return (0, (comp_rank, values), depth, _event_key(event))

    return sorted(lineage.events(), key=key)


def _scope_positions(atom, scope: Sequence[Variable]) -> Tuple[int, ...]:
    """First term position of each scope variable in the atom."""
    positions: List[int] = []
    for variable in scope:
        for position, term in enumerate(atom.terms):
            if term == variable:
                positions.append(position)
                break
    return tuple(positions)


ORDERINGS = {
    "lineage": lineage_order,
    "hierarchy": hierarchy_order,
}


def make_order(
    lineage: Lineage,
    strategy: str = "auto",
    query: Optional[ConjunctiveQuery] = None,
) -> Tuple[str, List[TupleKey]]:
    """Resolve a strategy name to ``(effective name, event order)``.

    ``auto`` picks ``hierarchy`` when the query is supplied, connected
    and hierarchical, else ``lineage``.

    >>> from repro.core import parse
    >>> from repro.db import star_join_instance
    >>> from repro.lineage.grounding import ground_lineage
    >>> query = parse("R(x), S(x,y)")
    >>> lineage = ground_lineage(query, star_join_instance(2, 2, seed=0))
    >>> make_order(lineage, "auto")[0]
    'lineage'
    >>> make_order(lineage, "auto", query)[0]
    'hierarchy'
    """
    if strategy == "auto":
        if (
            query is not None
            and query.atoms
            and query.is_connected()
            and is_hierarchical(query)
        ):
            strategy = "hierarchy"
        else:
            strategy = "lineage"
    if strategy not in ORDERINGS:
        raise ValueError(
            f"unknown ordering strategy {strategy!r}; "
            f"expected one of {STRATEGIES}"
        )
    return strategy, ORDERINGS[strategy](lineage, query)
