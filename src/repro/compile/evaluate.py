"""Evaluation services over compiled circuits.

Everything here is linear in circuit size — that is the entire point
of compiling: the #P-hard work happens once, at compilation, and every
probability query afterwards is a cheap pass.

* :func:`probability` — exact probability in one bottom-up sweep.
* :func:`probability_batch` — the same sweep, vectorized: one circuit,
  a ``(batch, n_events)`` weight matrix, numpy vectors as node values;
  the whole batch costs one topological pass instead of ``batch`` of
  them (how :meth:`CompiledEngine.answers_from_lineages` re-weights one shared
  circuit across many answer tuples).
* :func:`model_count` — exact model counting via the weight-½ trick
  with :class:`fractions.Fraction` arithmetic (no float loss).

Soundness rests on the compilers' structural contract (decomposable
AND, deterministic OR, see :mod:`repro.compile.circuit`): then
``P(AND) = Π``, ``P(OR) = Σ``, ``P(NOT) = 1 − P``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from .circuit import AND, CONST, LIT, NOT, OR, Circuit, NodeId


def _node_value(circuit: Circuit, node: NodeId, weights, value, one, zero):
    payload = circuit.payload(node)
    kind = payload[0]
    if kind == CONST:
        return one if payload[1] else zero
    if kind == LIT:
        weight = weights[payload[1]]
        return weight if payload[2] else one - weight
    if kind == NOT:
        return one - value[payload[1]]
    if kind == AND:
        result = one
        for child in payload[1]:
            result = result * value[child]
        return result
    result = zero  # OR: deterministic, so probabilities add
    for child in payload[1]:
        result = result + value[child]
    return result


def probability(
    circuit: Circuit, root: NodeId, weights: Mapping[Hashable, float]
):
    """Exact probability of ``root`` — one linear bottom-up pass.

    Generic over the weight type: pass floats for probabilities or
    :class:`fractions.Fraction` for exact rational results.
    """
    sample = next(iter(weights.values()), 1.0)
    one, zero = type(sample)(1), type(sample)(0)
    value: Dict[NodeId, object] = {}
    for node in circuit.topological(root):
        value[node] = _node_value(circuit, node, weights, value, one, zero)
    return value[root]


def probability_batch(
    circuit: Circuit,
    root: NodeId,
    events: Sequence[Hashable],
    weights,
):
    """Probability of ``root`` under every row of a weight matrix.

    ``weights`` is a ``(batch, len(events))`` float array whose column
    ``j`` holds the marginal of ``events[j]``; returns the ``(batch,)``
    vector of root probabilities.  One topological sweep with numpy
    vectors as node values — the batch dimension rides along every
    product/sum for free instead of re-walking the circuit per row.
    """
    weights = np.asarray(weights, dtype=np.float64)
    column = {event: j for j, event in enumerate(events)}
    batch = weights.shape[0]
    ones = np.ones(batch)
    zeros = np.zeros(batch)
    value: Dict[NodeId, "np.ndarray"] = {}
    for node in circuit.topological(root):
        payload = circuit.payload(node)
        kind = payload[0]
        if kind == CONST:
            value[node] = ones if payload[1] else zeros
        elif kind == LIT:
            weight = weights[:, column[payload[1]]]
            value[node] = weight if payload[2] else 1.0 - weight
        elif kind == NOT:
            value[node] = 1.0 - value[payload[1]]
        elif kind == AND:
            result = ones
            for child in payload[1]:
                result = result * value[child]
            value[node] = result
        else:  # OR: deterministic, so probabilities add
            result = zeros
            for child in payload[1]:
                result = result + value[child]
            value[node] = result
    return value[root]


def reweighted_probabilities(
    artifact, events: Sequence[Hashable], rows: Sequence[Sequence[float]]
) -> List[float]:
    """One compiled artifact evaluated under many weight vectors.

    The batched re-weighting path shared by
    :meth:`CompiledEngine.answers_from_lineages <repro.engines.compiled.CompiledEngine.answers_from_lineages>`
    (answers of one query on a shared canonical circuit) and the
    serving layer (same-shape queries across a batch, probability-only
    refreshes): ``artifact`` is a compiled OBDD/d-DNNF, ``events`` its
    variable order, and each row of ``rows`` one weight vector aligned
    with ``events``.  More than one row is one vectorized bottom-up
    sweep (``probability_batch``); a single row is one scalar pass.
    """
    if not rows:
        return []
    if len(rows) > 1:
        values = artifact.probability_batch(
            events, np.asarray(rows, dtype=np.float64)
        )
        return [float(value) for value in values]
    return [
        float(artifact.probability(dict(zip(events, row)))) for row in rows
    ]


def model_count(
    circuit: Circuit,
    root: NodeId,
    variables: Optional[Iterable[Hashable]] = None,
) -> int:
    """Satisfying assignments of ``root`` over ``variables``.

    ``variables`` defaults to the variables mentioned under ``root``;
    pass the full lineage event set to count over unmentioned events
    too (each doubles the count).
    """
    if variables is None:
        variables = circuit.variables(root)
    variables = list(variables)
    half = Fraction(1, 2)
    weights = {var: half for var in variables}
    mentioned = circuit.variables(root)
    missing = mentioned - set(variables)
    if missing:
        raise ValueError(f"circuit mentions variables outside the count "
                         f"scope: {sorted(map(str, missing))[:3]}")
    if not variables:
        return 1 if probability(circuit, root, {"_": half}) == 1 else 0
    scaled = probability(circuit, root, weights) * 2 ** len(variables)
    return int(scaled)

