"""V1 — the concurrent serving front: sharded workers vs one worker.

The scenario the pool was built for: sustained mixed traffic over many
distinct query shapes, with tuple probabilities drifting between
rounds.  Per-worker memory bounds the prepared-query LRU
(``max_prepared``); the workload's shape universe deliberately
exceeds one worker's LRU, so the two configurations separate:

* **1 worker** — every shape lands on the same session, the LRU
  thrashes, and nearly every request pays classification + grounding
  (+ circuit-cache lookup) again;
* **4 workers** — shapes hash-shard across workers
  (:func:`repro.serve.pool.shard_of`), each worker holds its slice of
  the shape universe comfortably, and the steady state is result-cache
  hits plus cheap re-weights after each update.

That is the architectural claim measured here: sharding by canonical
query shape multiplies aggregate cache capacity and keeps every
worker's caches hot.  On a multi-core host, CPU parallelism across
workers adds on top of this (the benchmark also runs — and this
machine may well be single-core, as the CI runner is); the asserted
**≥3×** comes from cache locality alone, so it holds either way.

Every response from both configurations is compared against a fresh
:class:`~repro.engines.router.RouterEngine` replaying the identical
deterministic workload — agreement to 1e-9 is asserted always, also
in smoke mode.

Two robustness sections ride along (PR 8).  **Overload**: a
:class:`~repro.serve.server.BackgroundServer` with a small
``max_inflight`` cap is offered 2x its admitted capacity by closed-loop
HTTP clients; accepted requests must keep a bounded p99 (the cap is
what prevents unbounded queueing) and shed requests must come back as
503 + ``Retry-After`` fast — rejection is the cheap path.  **Chaos
replay**: the mixed workload replays through a 4-worker pool while a
seeded RNG SIGKILLs a live worker every N accepted requests; the
supervisor respawns shards from a fresh front snapshot, and the run
must end with zero client-visible errors other than honest 503 sheds
and every accepted answer agreeing with the fresh router to 1e-9.

Emits ``BENCH_server.json``.  CI smoke: ``python
benchmarks/bench_server.py --smoke`` (tiny sizes, correctness +
chaos/overload assertions, no throughput timing assertions; still
writes the JSON).
"""

import argparse
import http.client
import json
import os
import random
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.core import parse
from repro.db import ProbabilisticDatabase, random_database
from repro.engines import RouterEngine
from repro.serve import (
    BackgroundServer,
    PoolOverloadError,
    ServerPool,
    SessionConfig,
)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_server.json"

BOOLEAN_SHAPE = "R{i}(x), S{i}(x,y), T{i}(y)"   # #P-hard: compiled tier
ANSWER_SHAPE = "Q(x) :- R{i}(x), S{i}(x,y), T{i}(y)"


def build_db(n_shapes, domain, density=0.3):
    """One private R/S/T family per shape, each structurally distinct."""
    merged = ProbabilisticDatabase()
    for i in range(n_shapes):
        part = random_database(
            {f"R{i}": 1, f"S{i}": 2, f"T{i}": 1},
            domain_size=domain, density=density, seed=1000 + i,
        )
        # Sparse draws can leave a relation empty; pin one connected
        # match so every shape has a non-trivial lineage to serve.
        part.relation(f"R{i}").add((0,), 0.5)
        part.relation(f"S{i}").add((0, 1), 0.5)
        part.relation(f"T{i}").add((1,), 0.5)
        for relation in part.relations():
            merged.add_relation(relation)
    return merged


def build_workload(n_shapes, rounds, db):
    """A deterministic mixed request stream, one list per round.

    Each round drifts one tuple's probability (round-robin over the
    shape families) and then queries every shape — Boolean for all,
    ranked answers for every fourth — so the warm path sees mostly
    result hits, a few re-weights, and zero recompilations.
    """
    first_rows = {
        i: next(iter(db.relation(f"R{i}").tuples())) for i in range(n_shapes)
    }
    plan = []
    for r in range(rounds):
        target = r % n_shapes
        ops = [("update", f"R{target}", first_rows[target],
                0.15 + 0.6 * ((3 * r + 1) % 7) / 7.0)]
        ops.extend(
            ("evaluate", BOOLEAN_SHAPE.format(i=i)) for i in range(n_shapes)
        )
        ops.extend(
            ("answers", ANSWER_SHAPE.format(i=i), 3)
            for i in range(0, n_shapes, 4)
        )
        plan.append(ops)
    return plan


def replay_expected(db, plan):
    """Ground truth on a private copy: a fresh exact router per round.

    The router shares nothing with the pools under test; one instance
    per round (rather than per request) only spares the ground-truth
    pass recompiling every circuit 240 times.
    """
    shadow = db.copy()
    expected = []
    for ops in plan:
        fresh = RouterEngine(exact_fallback=True)
        for op in ops:
            if op[0] == "update":
                shadow.add(op[1], op[2], op[3])
            elif op[0] == "evaluate":
                expected.append(fresh.probability(parse(op[1]), shadow))
            else:
                expected.append(fresh.answers(parse(op[1]), shadow, op[2]))
    return expected


def run_pool(workers, db, plan, config):
    """Drive the full workload through one pool; returns timing + responses."""
    pool = ServerPool(
        db.copy(), workers=workers, config=config, request_timeout=600
    )
    try:
        # Warm-up: one pass over every query shape, outside the timer
        # (both configurations get it; only the sharded one can hold on
        # to what it prepared).
        for ops in plan[:1]:
            for op in ops:
                if op[0] == "evaluate":
                    pool.evaluate(op[1])
                elif op[0] == "answers":
                    pool.answers(op[1], op[2])
        responses = []
        requests = 0
        start = time.perf_counter()
        for ops in plan:
            evaluates = [op[1] for op in ops if op[0] == "evaluate"]
            answer_ops = [op for op in ops if op[0] == "answers"]
            for op in ops:
                if op[0] == "update":
                    pool.update(op[1], op[2], op[3])
            values = pool.evaluate_many(evaluates)
            rankings = pool.answers_many(
                [op[1] for op in answer_ops],
                answer_ops[0][2] if answer_ops else None,
            )
            requests += len(evaluates) + len(answer_ops)
            # Re-interleave into plan order for the agreement check.
            values_iter, rankings_iter = iter(values), iter(rankings)
            for op in ops:
                if op[0] == "evaluate":
                    responses.append(next(values_iter))
                elif op[0] == "answers":
                    responses.append(next(rankings_iter))
        seconds = time.perf_counter() - start
        stats = pool.stats()
        # The telemetry spine survives the run: worker registries must
        # merge into one scrape-able snapshot (counters + histograms).
        metrics = pool.metrics_snapshot()
        for series in ("repro_pool_requests_total",
                       "repro_session_results_total",
                       "repro_session_query_seconds"):
            assert series in metrics, f"merged metrics missing {series}"
        assert metrics["repro_session_query_seconds"]["values"], (
            "worker histograms did not merge into the pool snapshot"
        )
    finally:
        pool.close()
    return seconds, requests, responses, stats


def max_abs_diff(expected, got):
    assert len(expected) == len(got), "workloads diverged in length"
    worst = 0.0
    for want, have in zip(expected, got):
        if isinstance(want, list):
            assert [a for a, _ in want] == [a for a, _ in have], (
                f"rankings diverged: {want} vs {have}"
            )
            for (_, wp), (_, hp) in zip(want, have):
                worst = max(worst, abs(wp - hp))
        else:
            worst = max(worst, abs(want - have))
    return worst


def bench_throughput(n_shapes, domain, rounds, max_prepared):
    config = SessionConfig(exact_fallback=True, max_prepared=max_prepared)
    db = build_db(n_shapes, domain)
    plan = build_workload(n_shapes, rounds, db)
    expected = replay_expected(db, plan)
    seconds_1, requests, responses_1, stats_1 = run_pool(1, db, plan, config)
    seconds_4, _, responses_4, stats_4 = run_pool(4, db, plan, config)
    return {
        "n_shapes": n_shapes,
        "domain": domain,
        "rounds": rounds,
        "max_prepared": max_prepared,
        "requests": requests,
        "seconds_1_worker": round(seconds_1, 6),
        "seconds_4_workers": round(seconds_4, 6),
        "throughput_1_worker": round(requests / seconds_1, 1),
        "throughput_4_workers": round(requests / seconds_4, 1),
        "speedup": round(seconds_1 / seconds_4, 2),
        "max_abs_diff_1": max_abs_diff(expected, responses_1),
        "max_abs_diff_4": max_abs_diff(expected, responses_4),
        "stats_1_worker": stats_1.combined.describe(),
        "stats_4_workers": stats_4.combined.describe(),
        "note": (
            "speedup is driven by shape-sharded cache locality "
            "(aggregate LRU capacity), not core count; CPU parallelism "
            "adds on top on multi-core hosts"
        ),
    }


def _percentile(samples, q):
    """The q-th percentile of a non-empty sample list (nearest rank)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]


def bench_overload(max_inflight, clients, requests_per_client):
    """Offer 2x the admitted capacity; measure accepted vs shed latency.

    ``clients`` closed-loop HTTP clients (each always has exactly one
    request outstanding) pound a server capped at ``max_inflight``
    concurrent requests.  With ``clients = 2 * max_inflight`` the
    offered load is twice what admission lets through, so a steady
    fraction of requests is shed with 503 + ``Retry-After``.  The two
    claims measured: the cap bounds accepted-request p99 (no unbounded
    queueing behind the front), and shedding is fast — a rejected
    request costs a header parse and one small write, never a pool
    round-trip.

    Every accepted (200) body is also checked against a fresh router
    to 1e-9: overload must never change answers, only refuse some.
    """
    n_shapes = 4
    db = build_db(n_shapes, 6)
    texts = [BOOLEAN_SHAPE.format(i=i) for i in range(n_shapes)]
    router = RouterEngine(exact_fallback=True)
    truth = {t: router.probability(parse(t), db) for t in texts}
    pool = ServerPool(
        db.copy(), workers=2,
        config=SessionConfig(exact_fallback=True), request_timeout=60,
    )
    outcomes = []
    with BackgroundServer(pool, max_inflight=max_inflight) as server:
        for text in texts:  # warm every shape outside the timed run
            pool.evaluate(text)

        def client(index):
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=60
            )
            rows = []
            for r in range(requests_per_client):
                text = texts[(index + r) % n_shapes]
                body = json.dumps({"query": text}).encode()
                began = time.perf_counter()
                conn.request(
                    "POST", "/evaluate", body=body,
                    headers={"Content-Type": "application/json"},
                )
                reply = conn.getresponse()
                payload = reply.read()
                took = time.perf_counter() - began
                retry_after = reply.getheader("Retry-After")
                rows.append((reply.status, took, text, payload, retry_after))
            conn.close()
            return rows

        with ThreadPoolExecutor(max_workers=clients) as executor:
            for rows in executor.map(client, range(clients)):
                outcomes.extend(rows)
    pool.close()

    accepted = [row for row in outcomes if row[0] == 200]
    shed = [row for row in outcomes if row[0] == 503]
    unexpected = sorted({row[0] for row in outcomes} - {200, 503})
    worst = 0.0
    for _status, _took, text, payload, _retry in accepted:
        got = json.loads(payload)["probability"]
        worst = max(worst, abs(got - truth[text]))
    accepted_p99 = _percentile([row[1] for row in accepted], 0.99)
    shed_p99 = _percentile([row[1] for row in shed], 0.99) if shed else 0.0
    return {
        "max_inflight": max_inflight,
        "clients": clients,
        "requests": len(outcomes),
        "accepted": len(accepted),
        "shed": len(shed),
        "unexpected_statuses": unexpected,
        "sheds_carry_retry_after": all(row[4] == "1" for row in shed),
        "accepted_p50_ms": round(
            _percentile([row[1] for row in accepted], 0.50) * 1000, 3
        ),
        "accepted_p99_ms": round(accepted_p99 * 1000, 3),
        "shed_p50_ms": round(
            (_percentile([row[1] for row in shed], 0.50) if shed else 0.0)
            * 1000, 3
        ),
        "shed_p99_ms": round(shed_p99 * 1000, 3),
        "max_abs_diff": worst,
        "note": (
            "closed-loop clients at 2x the admission cap; sheds are "
            "503 + Retry-After and never touch the pool"
        ),
    }


def bench_chaos_replay(n_shapes, domain, rounds, kill_every, seed=20260807):
    """The issue's acceptance drill: SIGKILL a worker every N requests.

    Replays the mixed workload (updates + Boolean + ranked queries)
    through a 4-worker pool, killing a seeded-random live worker every
    ``kill_every`` accepted requests.  The supervisor must respawn each
    shard from a fresh front snapshot; the retry path must absorb the
    swept in-flight work.  Outcome contract: zero client-visible
    errors other than honest admission sheds (none are expected here —
    no queue bound is set — but they are the only tolerated failure),
    and every accepted answer identical to a fresh exact router at
    1e-9.
    """
    db = build_db(n_shapes, domain)
    plan = build_workload(n_shapes, rounds, db)
    expected = replay_expected(db, plan)
    rng = random.Random(seed)
    pool = ServerPool(
        db.copy(), workers=4,
        config=SessionConfig(exact_fallback=True),
        request_timeout=120, request_retries=1,
        respawn_limit=10_000, respawn_window=1e9,
    )
    responses = []
    requests = kills = sheds = 0
    try:
        start = time.perf_counter()
        for ops in plan:
            for op in ops:
                if op[0] == "update":
                    pool.update(op[1], op[2], op[3])
                    continue
                requests += 1
                if requests % kill_every == 0:
                    health = pool.health()
                    alive = [
                        entry["pid"] for entry in health["shards"]
                        if entry["alive"] and not entry["degraded"]
                    ]
                    if alive:
                        os.kill(rng.choice(alive), signal.SIGKILL)
                        kills += 1
                try:
                    if op[0] == "evaluate":
                        responses.append(pool.evaluate(op[1]))
                    else:
                        responses.append(pool.answers(op[1], op[2]))
                except PoolOverloadError:
                    sheds += 1
                    responses.append(None)
        seconds = time.perf_counter() - start
        # The last kill may still be mid-respawn; give the supervisor
        # a moment so the final health report reflects every recovery.
        waited = time.monotonic() + 15.0
        while time.monotonic() < waited:
            health = pool.health()
            recovered = health["respawns"] + len(health["degraded"])
            if recovered >= kills and all(
                entry["alive"] or entry["degraded"]
                for entry in health["shards"]
            ):
                break
            time.sleep(0.1)
        stats = pool.stats()
    finally:
        pool.close()

    worst, checked = 0.0, 0
    assert len(expected) == len(responses), "workloads diverged in length"
    for want, have in zip(expected, responses):
        if have is None:  # an honest shed — excluded from agreement
            continue
        checked += 1
        worst = max(worst, max_abs_diff([want], [have]))
    return {
        "n_shapes": n_shapes,
        "rounds": rounds,
        "requests": requests,
        "kill_every": kill_every,
        "kills": kills,
        "respawns": health.get("respawns", 0),
        "degraded": health.get("degraded", []),
        "sheds": sheds,
        "timeouts": stats.timeouts,
        "checked": checked,
        "seconds": round(seconds, 6),
        "max_abs_diff": worst,
        "note": (
            "a seeded RNG SIGKILLs a live worker every "
            f"{kill_every} requests; every accepted answer is checked "
            "against a fresh exact router"
        ),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, correctness only, no timing asserts")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--rounds", type=int, default=None)
    args = parser.parse_args(argv)

    if args.smoke:
        n_shapes, domain, rounds, max_prepared = 6, 5, 2, 2
        overload_cap, overload_clients, overload_requests = 2, 4, 40
        chaos_rounds, kill_every = 15, 40     # ~120 requests, ~3 kills
    else:
        n_shapes, domain, rounds, max_prepared = 32, 18, 6, 12
        overload_cap, overload_clients, overload_requests = 4, 8, 200
        chaos_rounds, kill_every = 25, 50     # ~1000 requests, ~20 kills
    rounds = args.rounds if args.rounds is not None else rounds

    throughput = bench_throughput(n_shapes, domain, rounds, max_prepared)
    print(
        f"mixed warm workload ({throughput['requests']} requests, "
        f"{n_shapes} shapes, LRU {max_prepared}/worker): "
        f"1 worker {throughput['seconds_1_worker']:.3f}s "
        f"({throughput['throughput_1_worker']:.0f} req/s), "
        f"4 workers {throughput['seconds_4_workers']:.3f}s "
        f"({throughput['throughput_4_workers']:.0f} req/s) "
        f"-> {throughput['speedup']:.1f}x "
        f"(max |diff| {max(throughput['max_abs_diff_1'], throughput['max_abs_diff_4']):.2e})"
    )

    overload = bench_overload(
        overload_cap, overload_clients, overload_requests
    )
    print(
        f"overload (cap {overload['max_inflight']}, "
        f"{overload['clients']} clients, {overload['requests']} requests): "
        f"{overload['accepted']} accepted "
        f"(p99 {overload['accepted_p99_ms']:.1f}ms), "
        f"{overload['shed']} shed "
        f"(p99 {overload['shed_p99_ms']:.1f}ms), "
        f"max |diff| {overload['max_abs_diff']:.2e}"
    )

    chaos = bench_chaos_replay(n_shapes, domain, chaos_rounds, kill_every)
    print(
        f"chaos replay ({chaos['requests']} requests, kill every "
        f"{chaos['kill_every']}): {chaos['kills']} kills, "
        f"{chaos['respawns']} respawns, {chaos['sheds']} sheds, "
        f"degraded {chaos['degraded']}, "
        f"max |diff| {chaos['max_abs_diff']:.2e} "
        f"({chaos['seconds']:.2f}s)"
    )

    report = {
        "benchmark": "server",
        "smoke": args.smoke,
        "throughput": throughput,
        "overload": overload,
        "chaos_replay": chaos,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    assert throughput["max_abs_diff_1"] <= 1e-9, (
        f"1-worker responses disagree: {throughput['max_abs_diff_1']}"
    )
    assert throughput["max_abs_diff_4"] <= 1e-9, (
        f"4-worker responses disagree: {throughput['max_abs_diff_4']}"
    )
    # Overload: only 200s and honest 503s, answers unchanged, sheds
    # carry Retry-After, and the shed path never queues behind work.
    assert not overload["unexpected_statuses"], (
        f"overload produced non-200/503 statuses: "
        f"{overload['unexpected_statuses']}"
    )
    assert overload["accepted"] > 0 and overload["shed"] > 0, (
        f"overload scenario vacuous: {overload['accepted']} accepted, "
        f"{overload['shed']} shed"
    )
    assert overload["sheds_carry_retry_after"], (
        "shed responses missing Retry-After"
    )
    assert overload["max_abs_diff"] <= 1e-9, (
        f"overload changed answers: {overload['max_abs_diff']}"
    )
    # Chaos replay: kills happened, shards recovered, and nothing the
    # client saw was wrong — sheds are the only tolerated non-answer.
    assert chaos["kills"] > 0, "chaos replay never killed a worker"
    assert chaos["respawns"] >= chaos["kills"] - len(chaos["degraded"]), (
        f"supervisor lost kills: {chaos['kills']} kills but only "
        f"{chaos['respawns']} respawns"
    )
    assert chaos["max_abs_diff"] <= 1e-9, (
        f"chaos replay answers disagree: {chaos['max_abs_diff']}"
    )
    if not args.smoke:
        assert throughput["speedup"] >= 3.0, (
            f"4-worker speedup {throughput['speedup']}x < 3x"
        )
        # Timing gates only off CI-smoke: rejection must be cheap
        # (sub-10ms p99) and the admission cap must bound accepted
        # latency rather than letting a queue build.
        assert overload["shed_p99_ms"] < 10.0, (
            f"shed p99 {overload['shed_p99_ms']}ms >= 10ms"
        )
        assert overload["accepted_p99_ms"] < 1000.0, (
            f"accepted p99 {overload['accepted_p99_ms']}ms unbounded"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
