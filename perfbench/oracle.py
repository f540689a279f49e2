"""Correctness oracle, run outside the timed region.

Exact reads are replayed, client by client, against a fresh
``RouterEngine(exact_fallback=True)`` over a private copy of the
initial database.  Monte Carlo reads are compared with an exact value
computed here from the ``unsafe_mc`` structure: each anchor's lineage
is a union of independent ``R(x), S(x,y), T(y)`` bicliques, and one
biclique is solved exactly by summing over the subsets of its ``T``
side.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.parser import parse
from repro.db.database import ProbabilisticDatabase
from repro.engines.router import RouterEngine

from workloads import Request, Spec

#: Exact tiers must agree with the oracle to this absolute tolerance.
EXACT_TOLERANCE = 1e-9
#: A Monte Carlo estimate further than this from the exact value counts
#: as a wrong answer (20 000 Karp-Luby samples give errors ~1e-3).
MC_TOLERANCE = 0.05


def client_spec(spec: Spec, client: int) -> Spec:
    """The relations one client owns (names end in its digit)."""
    return {name: dict(rows) for name, rows in spec.items()
            if name.endswith(str(client))}


def anchor_of(query: str) -> Tuple[int, int]:
    """``(client, anchor)`` of an ``unsafe_mc`` read."""
    head = re.search(r"A(\d+)\(", query)
    boolean = re.match(r"^A\d+\((\d+), x\)", query)
    if boolean:
        return int(head.group(1)), int(boolean.group(1))
    low = re.search(r"a > (-?\d+), a < ", query)
    return int(head.group(1)), int(low.group(1)) + 1


def anchor_probability(db: ProbabilisticDatabase, client: int,
                       anchor: int) -> float:
    """Exact ``p(A(anchor, x), R(x), S(x,y), T(y))`` for disjoint bicliques."""
    A, R, S, T = (db.relation(f"{name}{client}") for name in "ARST")
    xs = [row[1] for row in A.tuples() if row[0] == anchor]
    edges: Dict[int, List[int]] = {}
    for x, y in S.tuples():
        edges.setdefault(x, []).append(y)
    # Group the anchor's x values into connected components via shared y.
    components: List[Tuple[List[int], List[int]]] = []
    seen: Dict[int, int] = {}
    for x in xs:
        ys = edges.get(x, [])
        home = next((seen[y] for y in ys if y in seen), None)
        if home is None:
            home = len(components)
            components.append(([], []))
        component = components[home]
        component[0].append(x)
        for y in ys:
            if y not in seen:
                seen[y] = home
                component[1].append(y)
            elif seen[y] != home:
                raise ValueError("unsafe_mc blocks are expected to be disjoint")
    miss = 1.0
    for cxs, cys in components:
        miss *= 1.0 - _biclique(
            [A.probability((anchor, x)) * R.probability((x,)) for x in cxs],
            [T.probability((y,)) for y in cys],
            [[S.probability((x, y)) if (x, y) in S else 0.0 for y in cys]
             for x in cxs],
        )
    return 1.0 - miss


def _biclique(px: Sequence[float], py: Sequence[float],
              ps: Sequence[Sequence[float]]) -> float:
    """``p(OR_ij X_i S_ij Y_j)`` by summing over which ``Y`` are true."""
    total = 0.0
    for present in itertools.product((False, True), repeat=len(py)):
        weight = 1.0
        for flag, p in zip(present, py):
            weight *= p if flag else 1.0 - p
        if weight == 0.0:
            continue
        none = 1.0
        for i, p in enumerate(px):
            blocked = 1.0
            for j, flag in enumerate(present):
                if flag:
                    blocked *= 1.0 - ps[i][j]
            none *= 1.0 - p * (1.0 - blocked)
        total += weight * (1.0 - none)
    return total


def replay(spec: Spec, client: int, requests: Sequence[Request],
           monte_carlo: bool) -> List[Optional[object]]:
    """Expected result of every request of one client, in order.

    Updates yield None.  Boolean reads yield a float, answer reads the
    full ranking as ``{answer tuple: probability}``.
    """
    db = ProbabilisticDatabase.from_dict(client_spec(spec, client))
    router = RouterEngine(exact_fallback=True)
    memo: Dict[tuple, object] = {}
    expected: List[Optional[object]] = []
    for kind, body in requests:
        if kind == "update":
            db.add(body["relation"], tuple(body["row"]), body["probability"])
            expected.append(None)
            continue
        query = body["query"]
        key = (kind, query, db.version_snapshot(parse(query).relations))
        value = memo.get(key)
        if value is None:
            if monte_carlo:
                owner, anchor = anchor_of(query)
                p = anchor_probability(db, owner, anchor)
                value = p if kind == "evaluate" else {(anchor,): p}
            elif kind == "evaluate":
                value = router.probability(parse(query), db)
            else:
                value = dict(router.answers(parse(query), db))
            memo[key] = value
        expected.append(value)
    return expected


def check(kind: str, got, expected, top: Optional[int],
          tolerance: float) -> Tuple[bool, List[float]]:
    """Does a reply match the oracle?  Also returns the absolute errors."""
    if kind == "evaluate":
        error = abs(float(got) - expected)
        return error <= tolerance, [error]
    ranking = {tuple(item["answer"]): item["probability"] for item in got}
    want = min(len(expected), top) if top is not None else len(expected)
    if len(ranking) != want:
        return False, []
    errors = []
    for answer, probability in ranking.items():
        if answer not in expected:
            return False, errors
        errors.append(abs(probability - expected[answer]))
    if any(error > tolerance for error in errors):
        return False, errors
    # The returned answers must be a top set: nothing left out beats
    # the weakest one returned (ties within tolerance are fine).
    if ranking:
        weakest = min(expected[answer] for answer in ranking)
        for answer, probability in expected.items():
            if answer not in ranking and probability > weakest + tolerance:
                return False, errors
    return True, errors
