"""Seeded workload generators for the serving benchmark.

Each workload is a database plus one request stream per client.  The
two clients own disjoint relation families (``R0``/``S0``/... for
client 0, ``R1``/``S1``/... for client 1): a client only reads and
writes its own relations, so the answer to each of its reads depends
only on its own earlier requests.  That makes the correctness oracle a
plain sequential replay of each client's stream, whatever the timing
between the two clients was.

Everything is a pure function of ``(workload, seed)``; the program
under test receives only the database and the requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.core.parser import parse
from repro.core.query import canonical_string
from repro.serve.pool import shard_of

CLIENTS = 2
WORKERS = 2

#: One request: ``(kind, body)`` with kind ``evaluate``/``answers``/
#: ``update`` and body the JSON object sent to ``/<kind>``.
Request = Tuple[str, dict]
Spec = Dict[str, Dict[tuple, float]]

#: Requests generated per client; runs stop long before the end.
STREAM_LENGTH = 20_000


@dataclass
class Workload:
    name: str
    seed: int
    why: str
    spec: Spec
    #: Per client: reads sent once during set-up to fill caches.
    warmup: List[List[Request]]
    #: Per client: the measured request stream.
    streams: List[List[Request]]
    #: True when every read is answered by Monte Carlo sampling.
    monte_carlo: bool = False
    #: Workload parameters worth recording with the results.
    params: dict = field(default_factory=dict)


def shard_for(kind: str, query: str) -> int:
    """The pool shard a read lands on (same rule as ``ServerPool``)."""
    parsed = parse(query)
    return shard_of(
        canonical_string(parsed.boolean() if kind == "evaluate" else parsed),
        WORKERS,
    )


def balanced(kind: str, candidates: List[str], per_shard: int) -> List[str]:
    """Pick ``per_shard`` queries landing on each shard, in order."""
    picked: Dict[int, List[str]] = {shard: [] for shard in range(WORKERS)}
    for query in candidates:
        bucket = picked[shard_for(kind, query)]
        if len(bucket) < per_shard:
            bucket.append(query)
    short = [shard for shard, bucket in picked.items() if len(bucket) < per_shard]
    if short:
        raise ValueError(f"too few {kind} candidates for shards {short}")
    return [query for shard in range(WORKERS) for query in picked[shard]]


def interleave(*families: List[str]) -> List[str]:
    """Alternate between query families so each is represented."""
    return [query for group in zip(*families) for query in group]


def _drift(rng: random.Random, rows: Dict[str, list], relation: str,
           low: float = 0.1, high: float = 0.9) -> Request:
    """A probability-only update of an existing tuple."""
    row = rows[relation][rng.randrange(len(rows[relation]))]
    probability = round(rng.uniform(low, high), 6)
    return "update", {"relation": relation, "row": list(row),
                      "probability": probability}


def _unary(rng: random.Random, values, low=0.1, high=0.9) -> Dict[tuple, float]:
    return {(value,): round(rng.uniform(low, high), 6) for value in values}


def _rows(spec: Spec, *relations: str) -> Dict[str, list]:
    return {relation: list(spec[relation]) for relation in relations}


def _relations_of(queries: List[str]) -> Dict[str, List[str]]:
    return {query: sorted(parse(query).relations) for query in queries}


# ----------------------------------------------------------------------
# warm_drift
# ----------------------------------------------------------------------


def warm_drift(seed: int) -> Workload:
    """Small private families, every shape fits the prepared LRU."""
    domain = 8
    spec: Spec = {}
    warmup, streams = [], []
    for client in range(CLIENTS):
        rng = random.Random(f"warm_drift:{seed}:{client}")
        A, R, S, T = (f"{name}{client}" for name in "ARST")
        # A fixed join structure (the seed only draws probabilities and
        # the request stream), so circuit sizes do not vary with it.
        spec[A] = {
            (a, (a + step) % domain): round(rng.uniform(0.1, 0.9), 6)
            for a in range(4) for step in (0, 2, 5)
        }
        spec[R] = _unary(rng, range(domain))
        spec[T] = _unary(rng, range(domain))
        spec[S] = {
            (x, (x + step) % domain): round(rng.uniform(0.1, 0.9), 6)
            for x in range(domain) for step in (1, 3, 4)
        }
        rows = _rows(spec, A, R, S, T)
        unsafe = balanced("evaluate", [
            f"{R}(x), {S}(x,y), {T}(y), x > {k}" for k in range(domain - 2)
        ] + [
            f"{R}(x), {S}(x,y), {T}(y), y < {k}" for k in range(2, domain)
        ], 3)
        safe = balanced("evaluate", [
            f"{R}(x), {S}(x,{k})" for k in range(domain)
        ] + [
            f"{S}({k},y), {T}(y)" for k in range(domain)
        ], 3)
        # Per-answer residuals stay non-hierarchical: compiled answers.
        answers = balanced("answers", [
            f"Q(a) :- {A}(a,x), {R}(x), {S}(x,y), {T}(y), y > {k}"
            for k in range(domain - 2)
        ] + [
            f"Q(a) :- {A}(a,x), {R}(x), {S}(x,y), {T}(y), x < {k}"
            for k in range(2, domain)
        ], 2)
        evaluate = unsafe + safe
        warmup.append(
            [("evaluate", {"query": q}) for q in evaluate]
            + [("answers", {"query": q, "top": 3}) for q in answers]
        )
        stream: List[Request] = []
        for _ in range(STREAM_LENGTH):
            roll = rng.random()
            if roll < 0.8:
                stream.append(("evaluate", {"query": rng.choice(evaluate)}))
            elif roll < 0.9:
                stream.append(("answers", {"query": rng.choice(answers), "top": 3}))
            else:
                stream.append(_drift(rng, rows, rng.choice((A, R, S, T))))
        streams.append(stream)
    return Workload(
        "warm_drift", seed, WHY["warm_drift"], spec, warmup, streams,
        params={"domain": domain, "shapes": 2 * 16,
                "mix": "80% evaluate, 10% answers, 10% drift update"},
    )


# ----------------------------------------------------------------------
# safe_scale
# ----------------------------------------------------------------------


def safe_scale(seed: int) -> Workload:
    """Safe CQs, safe self-join UCQs and safe answer queries."""
    # S is the complete bipartite relation: every seed has the same
    # structure (only probabilities differ), so costs do not vary with it.
    domain = 12
    spec: Spec = {}
    warmup, streams = [], []
    for client in range(CLIENTS):
        rng = random.Random(f"safe_scale:{seed}:{client}")
        R, S, T = (f"{name}{client}" for name in "RST")
        spec[R] = _unary(rng, range(domain))
        spec[T] = _unary(rng, range(domain))
        spec[S] = {
            (x, y): round(rng.uniform(0.1, 0.9), 6)
            for x in range(domain) for y in range(domain)
        }
        # Shapes differ by one excluded constant, so each family has
        # nearly one cost and the latency percentiles stay put.
        ks = range(domain)
        tier1 = balanced("evaluate", interleave(
            [f"{R}(x), {S}(x,y), x != {k}" for k in ks],
            [f"{S}(x,y), {T}(y), y != {k}" for k in ks],
        ), 2)
        tier2 = balanced("evaluate", interleave(
            [f"{R}(x), {S}(x,y), x != {k} | {R}(u), {T}(u)" for k in ks],
            [f"{R}(x), {S}(x,y), {S}(x,z), x != {k}" for k in ks],
        ), 2)
        answers = balanced("answers", interleave(
            [f"Q(x) :- {R}(x), {S}(x,y), y != {k}" for k in ks],
            [f"Q(y) :- {S}(x,y), {T}(y), x != {k}" for k in ks],
        ), 2)
        evaluate = tier1 + tier2
        warmup.append(
            [("evaluate", {"query": q}) for q in evaluate]
            + [("answers", {"query": q, "top": 5}) for q in answers]
        )
        rows = _rows(spec, R, S, T)
        mentions = _relations_of(evaluate + answers)
        stream: List[Request] = []
        while len(stream) < STREAM_LENGTH:
            # Drift a relation the next read mentions, so every read
            # re-evaluates instead of hitting the result cache.
            roll = rng.random()
            # Tier 1 and tier 2 cost differently; a 70/30 split keeps
            # the evaluate p50 inside one mode and the p95 in the other.
            if roll < 0.42:
                read = ("evaluate", {"query": rng.choice(tier1)})
            elif roll < 0.6:
                read = ("evaluate", {"query": rng.choice(tier2)})
            else:
                read = ("answers", {"query": rng.choice(answers), "top": 5})
            relation = rng.choice(mentions[read[1]["query"]])
            stream.append(_drift(rng, rows, relation))
            stream.append(read)
        streams.append(stream)
    return Workload(
        "safe_scale", seed, WHY["safe_scale"], spec, warmup, streams,
        params={"domain": domain,
                "tuples": sum(len(rows) for rows in spec.values()),
                "mix": "50% drift update, 30% evaluate, 20% answers"},
    )


# ----------------------------------------------------------------------
# ground_churn
# ----------------------------------------------------------------------


def ground_churn(seed: int) -> Workload:
    """Selective unsafe queries over a universe wider than the LRUs."""
    anchors, fan, domain, degree = 2000, 5, 3000, 4
    spec: Spec = {}
    warmup, streams = [], []
    for client in range(CLIENTS):
        rng = random.Random(f"ground_churn:{seed}:{client}")
        A, G, R, S, T = (f"{name}{client}" for name in "AGRST")
        # The join structure is a fixed scramble (the seed draws only
        # probabilities and the request stream), so per-query costs do
        # not vary with the seed.
        spec[A] = {
            (a, (a * 7 + j * 613) % domain): round(rng.uniform(0.1, 0.9), 6)
            for a in range(anchors) for j in range(fan)
        }
        # Anchors in pairs: an answer query reads one pair.
        spec[G] = {
            (a // 2, a): round(rng.uniform(0.1, 0.9), 6) for a in range(anchors)
        }
        spec[R] = _unary(rng, range(domain))
        spec[T] = _unary(rng, range(domain))
        spec[S] = {
            (x, (x * 11 + j * 977 + 1) % domain): round(rng.uniform(0.1, 0.9), 6)
            for x in range(domain) for j in range(degree)
        }
        body = f"{R}(x), {S}(x,y), {T}(y)"

        def boolean(a: int) -> str:
            return f"{A}({a}, x), {body}"

        def union(a: int, b: int) -> str:
            return f"{A}({a}, x), {body} | {G}({b}, y), {T}(y)"

        def answers(group: int) -> str:
            return f"Q(a) :- {G}({group}, a), {A}(a,x), {body}"

        warmup.append([
            ("evaluate", {"query": boolean(anchors - 1)}),
            ("evaluate", {"query": union(anchors - 1, anchors // 2 - 1)}),
            ("answers", {"query": answers(anchors // 2 - 1), "top": 2}),
        ])
        existing = {A: set(spec[A]), S: set(spec[S])}
        stream: List[Request] = []
        for _ in range(STREAM_LENGTH):
            roll = rng.random()
            if roll < 0.4:
                stream.append(("evaluate", {"query": boolean(rng.randrange(anchors))}))
            elif roll < 0.55:
                stream.append(("evaluate", {"query": union(
                    rng.randrange(anchors), rng.randrange(anchors // 2))}))
            elif roll < 0.8:
                stream.append(("answers", {
                    "query": answers(rng.randrange(anchors // 2)), "top": 2}))
            else:
                # A structural insert: a tuple that does not exist yet.
                relation = A if rng.random() < 0.5 else S
                while True:
                    if relation == A:
                        row = (rng.randrange(anchors), rng.randrange(domain))
                    else:
                        row = (rng.randrange(domain), rng.randrange(domain))
                    if row not in existing[relation]:
                        existing[relation].add(row)
                        break
                stream.append(("update", {
                    "relation": relation, "row": list(row),
                    "probability": round(rng.uniform(0.1, 0.9), 6)}))
        streams.append(stream)
    return Workload(
        "ground_churn", seed, WHY["ground_churn"], spec, warmup, streams,
        params={"anchors": anchors, "fan": fan, "domain": domain,
                "degree": degree,
                "tuples": sum(len(rows) for rows in spec.values()),
                "mix": "55% evaluate (40% CQ, 15% UCQ), 25% answers, "
                       "20% structural insert"},
    )


# ----------------------------------------------------------------------
# unsafe_mc
# ----------------------------------------------------------------------


def unsafe_mc(seed: int, blocks: int = 2, side: int = 8) -> Workload:
    """Lineages past the compile budget, answered by Monte Carlo.

    Each anchor owns ``blocks`` disjoint ``side`` x ``side`` bicliques
    of ``S``, so a lineage is a union of small independent components:
    too big to compile within the 10 000-node budget at the default
    size, yet exactly solvable component by component for the oracle.
    """
    per_client = 2
    spec: Spec = {}
    warmup, streams = [], []
    for client in range(CLIENTS):
        rng = random.Random(f"unsafe_mc:{seed}:{client}")
        A, R, S, T = (f"{name}{client}" for name in "ARST")
        body = f"{R}(x), {S}(x,y), {T}(y)"
        candidates = [f"{A}({a}, x), {body}" for a in range(64)]
        booleans = balanced("evaluate", candidates, per_client // WORKERS)
        chosen = [int(q.split("(")[1].split(",")[0]) for q in booleans]
        spec[A], spec[R], spec[S], spec[T] = {}, {}, {}, {}

        def weight() -> float:
            return round(rng.uniform(0.05, 0.35), 6)

        value = 0
        for a in chosen:
            for _ in range(blocks):
                xs = range(value, value + side)
                ys = range(value + side, value + 2 * side)
                value += 2 * side
                for x in xs:
                    spec[A][(a, x)] = weight()
                    spec[R][(x,)] = weight()
                    for y in ys:
                        spec[S][(x, y)] = weight()
                for y in ys:
                    spec[T][(y,)] = weight()
        rows = _rows(spec, A, R, S, T)
        # One anchor per answer query: a single Monte Carlo estimate.
        answers = [
            f"Q(a) :- {A}(a,x), {body}, a > {a - 1}, a < {a + 1}"
            for a in chosen
        ]
        warmup.append(
            [("evaluate", {"query": q}) for q in booleans]
            + [("answers", {"query": q, "top": 1}) for q in answers]
        )
        stream: List[Request] = []
        while len(stream) < STREAM_LENGTH:
            if rng.random() < 0.5:
                read = ("evaluate", {"query": rng.choice(booleans)})
            else:
                read = ("answers", {"query": rng.choice(answers), "top": 1})
            relation = rng.choice((A, R, S, T))
            stream.append(_drift(rng, rows, relation, 0.05, 0.35))
            stream.append(read)
        streams.append(stream)
    return Workload(
        "unsafe_mc", seed, WHY["unsafe_mc"], spec, warmup, streams,
        monte_carlo=True,
        params={"blocks_per_anchor": blocks, "block_side": side,
                "anchors_per_client": per_client,
                "tuples": sum(len(rows) for rows in spec.values()),
                "mix": "50% drift update, 25% evaluate, 25% answers"},
    )


WHY = {
    "warm_drift": "warm steady state: cache hits and reweight sweeps, so "
                  "the HTTP front, the pool and the session cache check "
                  "dominate",
    "safe_scale": "PTIME side of the dichotomy: safe plans and lifted "
                  "inference over hundreds of tuples, nothing grounds",
    "ground_churn": "miss path: distinct unsafe queries beyond the "
                    "prepared LRUs plus structural inserts, so every read "
                    "plans, grounds and compiles",
    "unsafe_mc": "#P-hard side: lineages past the compile budget, "
                 "answered by Monte Carlo sampling after every drift",
}

GENERATORS: Dict[str, Callable[[int], Workload]] = {
    "warm_drift": warm_drift,
    "safe_scale": safe_scale,
    "ground_churn": ground_churn,
    "unsafe_mc": unsafe_mc,
}
