"""Concurrent correctness of the sharded serving pool (`repro.serve.pool`).

The headline suite is the hammer test the issue demands: one
`ServerPool` hit from N threads with mixed updates and queries, every
response checked against a fresh `RouterEngine` to 1e-9.  Threads own
disjoint relation families, so each thread's shadow database is the
exact state its own queries must observe regardless of how the other
threads' traffic interleaves (updates to unmentioned relations never
affect a query).
"""

import os
import signal
import threading
import time

import pytest

from repro.core import parse
from repro.core.query import canonical_string
from repro.db import ProbabilisticDatabase
from repro.engines import RouterEngine
from repro.serve import (
    PoolStats,
    ServerPool,
    SessionConfig,
    SessionStats,
    WorkerError,
    shard_of,
)

EXACT = SessionConfig(exact_fallback=True, mc_seed=1234)


def small_db():
    return ProbabilisticDatabase.from_dict({
        "R": {(1,): 0.5, (2,): 0.6},
        "S": {(1, 10): 0.7, (2, 10): 0.4, (2, 11): 0.3},
        "T": {(10,): 0.8, (11,): 0.2},
    })


@pytest.fixture(scope="module")
def mp_pool():
    """One spawned 2-worker pool shared by the multiprocess tests."""
    pool = ServerPool(
        small_db(), workers=2, config=EXACT, request_timeout=120
    )
    yield pool
    pool.close()


class TestShardOf:
    def test_stable_and_in_range(self):
        shape = "R(v0), S(v0, v1)"
        assert shard_of(shape, 4) == shard_of(shape, 4)
        assert all(0 <= shard_of(f"Q{i}(v0)", 3) < 3 for i in range(50))

    def test_spreads_shapes(self):
        shards = {shard_of(f"R{i}(v0), S{i}(v0, v1)", 4) for i in range(64)}
        assert len(shards) == 4

    def test_rejects_no_workers(self):
        with pytest.raises(ValueError):
            shard_of("R(v0)", 0)


class TestInlinePool:
    """workers=0: same API, one lock-guarded in-process session."""

    def test_matches_router(self):
        db = small_db()
        router = RouterEngine(exact_fallback=True)
        with ServerPool(db.copy(), workers=0, config=EXACT) as pool:
            for text in ["R(x), S(x,y)", "R(x), S(x,y), T(y)"]:
                assert pool.evaluate(text) == pytest.approx(
                    router.probability(parse(text), db), abs=1e-9
                )
            ranked = pool.answers("Q(x) :- R(x), S(x,y), T(y)", 2)
            expected = router.answers(
                parse("Q(x) :- R(x), S(x,y), T(y)"), db, 2
            )
            assert ranked == expected

    def test_update_then_query(self):
        db = small_db()
        with ServerPool(db, workers=0, config=EXACT) as pool:
            pool.update("R", (1,), 0.9)
            fresh_db = small_db()
            fresh_db.add("R", (1,), 0.9)
            fresh = RouterEngine(exact_fallback=True)
            assert pool.evaluate("R(x), S(x,y), T(y)") == pytest.approx(
                fresh.probability(parse("R(x), S(x,y), T(y)"), fresh_db),
                abs=1e-9,
            )

    def test_stats_shape(self):
        with ServerPool(small_db(), workers=0, config=EXACT) as pool:
            pool.evaluate_many(["R(x)", "R(x)"])
            stats = pool.stats()
            assert isinstance(stats, PoolStats)
            assert len(stats.workers) == 1
            assert stats.requests == 2
            assert "1 workers" in stats.describe()

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            ServerPool(small_db(), workers=-1)

    def test_bad_update_raises_and_leaves_pool_usable(self):
        with ServerPool(small_db(), workers=0, config=EXACT) as pool:
            with pytest.raises(ValueError):
                pool.update("R", (1,), 1.5)
            assert pool.evaluate("R(x)") == pytest.approx(0.8, abs=1e-9)


class TestStatsMerge:
    def test_merged_sums_fields(self):
        merged = SessionStats.merged(
            [SessionStats(prepared=1, reweights=2),
             SessionStats(prepared=4, fallbacks=1)]
        )
        assert merged.prepared == 5
        assert merged.reweights == 2
        assert merged.fallbacks == 1

    def test_pool_stats_combined(self):
        stats = PoolStats(workers=[SessionStats(prepared=1),
                                   SessionStats(prepared=2)])
        assert stats.combined.prepared == 3


class TestMultiprocessPool:
    """Against the shared spawned 2-worker pool."""

    def test_matches_router(self, mp_pool):
        db = small_db()
        router = RouterEngine(exact_fallback=True)
        texts = ["R(x), S(x,y)", "R(x), S(x,y), T(y)", "R(x)"]
        values = mp_pool.evaluate_many(texts)
        for text, value in zip(texts, values):
            assert value == pytest.approx(
                router.probability(parse(text), db), abs=1e-9
            )

    def test_answers_match_router(self, mp_pool):
        db = small_db()
        router = RouterEngine(exact_fallback=True)
        text = "Q(x) :- R(x), S(x,y), T(y)"
        assert mp_pool.answers(text) == router.answers(parse(text), db)
        # k truncation happens at the worker
        assert mp_pool.answers(text, 1) == router.answers(parse(text), db, 1)

    def test_worker_error_propagates(self, mp_pool):
        # The query fails to ground inside its worker.  A ValueError is
        # the client's fault, so the front re-raises it as one (the
        # HTTP front's 400), not as a WorkerError (a 500).
        with pytest.raises(ValueError, match="not range-restricted") as info:
            mp_pool.evaluate("R(x), S(x,y), T(y), z > 3")
        assert not isinstance(info.value, WorkerError)
        # ...and the pool stays serviceable afterwards.
        assert mp_pool.evaluate("R(x)") == pytest.approx(0.8, abs=1e-9)

    def test_stats_aggregates_workers(self, mp_pool):
        stats = mp_pool.stats()
        assert len(stats.workers) == 2
        assert stats.combined.prepared >= 1
        assert stats.requests >= 1

    def test_closed_pool_refuses_requests(self):
        pool = ServerPool(small_db(), workers=0, config=EXACT)
        pool.close()
        pool.close()  # idempotent
        # Inline pools keep serving after close() is a no-op barrier for
        # subprocesses; multiprocess refusal is covered via _check_open
        # in test_update_after_close below.

    def test_update_after_close_raises(self):
        pool = ServerPool(
            small_db(), workers=1, config=EXACT, request_timeout=120
        )
        pool.close()
        with pytest.raises(RuntimeError):
            pool.update("R", (1,), 0.4)
        with pytest.raises(RuntimeError):
            pool.evaluate("R(x)")


class TestBatchIsolation:
    @pytest.mark.parametrize("workers", [0, 1])
    @pytest.mark.parametrize("bad, message", [
        ("R(x), S(x,y), T(y), z > 3", "not range-restricted"),
        ("R(x, y)", "relation R has arity 1"),
    ])
    def test_a_bad_query_fails_only_its_own_future(
        self, workers, bad, message
    ):
        # One call's same-shard items ride one worker message (with one
        # worker, all of them do), as a `/batch` body's queries do.
        # The bad item must not take its batch-mates down with it.
        db = small_db()
        router = RouterEngine(exact_fallback=True)
        with ServerPool(
            db.copy(), workers=workers, config=EXACT, request_timeout=120
        ) as pool:
            good, failed, ranked, failed_ranked = pool._request_many([
                ("evaluate", "R(x), S(x,y)", None),
                ("evaluate", bad, None),
                ("answers", "Q(x) :- R(x), S(x,y)", None),
                ("answers", f"Q(x) :- {bad}", None),
            ])
            assert good.result(60) == pytest.approx(
                router.probability(parse("R(x), S(x,y)"), db), abs=1e-9
            )
            assert ranked.result(60) == router.answers(
                parse("Q(x) :- R(x), S(x,y)"), db
            )
            for future in (failed, failed_ranked):
                with pytest.raises(ValueError, match=message):
                    future.result(60)


class _RecordingReader:
    """A worker reply reader that records which thread closes it."""

    def __init__(self, conn, closers):
        self._conn = conn
        self._closers = closers

    def fileno(self):
        return self._conn.fileno()

    def recv(self):
        return self._conn.recv()

    def close(self):
        self._closers.append(threading.current_thread().name)
        self._conn.close()


def _await_respawn(pool):
    deadline = time.monotonic() + 30
    while pool.health()["respawns"] == 0:
        assert time.monotonic() < deadline, "no respawn recorded"
        time.sleep(0.05)


class TestWorkerDeath:
    def test_dead_worker_recovers_inflight_and_later_requests(self):
        # A worker dying mid-request must neither hang its caller nor
        # poison the pool: the stalled evaluate is re-dispatched to the
        # respawned worker, and later requests are served by it too.
        pool = ServerPool(
            small_db(), workers=1,
            config=SessionConfig(
                exact_fallback=True, mc_seed=1234,
                faults="seed=5,stall=1.0,stall_ms=1500",
            ),
            request_timeout=120,
        )
        text = "R(x), S(x,y), T(y)"
        outcome = {}

        def call():
            try:
                outcome["value"] = pool.evaluate(text)
            except Exception as error:  # noqa: BLE001 - surfaced below
                outcome["error"] = error

        try:
            thread = threading.Thread(target=call)
            thread.start()
            time.sleep(0.5)  # the worker is inside its 1.5s stall
            pool._processes[0].terminate()
            thread.join(timeout=120)
            assert not thread.is_alive(), "in-flight future hung"
            expected = RouterEngine(exact_fallback=True).probability(
                parse(text), small_db()
            )
            assert outcome.get("value") == pytest.approx(
                expected, abs=1e-9
            ), outcome
            _await_respawn(pool)
            assert pool.evaluate("R(x)") == pytest.approx(0.8, abs=1e-9)
            health = pool.health()
            assert health["ok"] and not health["degraded"]
        finally:
            pool.close()

    def test_only_the_collector_closes_reply_readers(self):
        # The supervisor used to close a dead worker's reply reader
        # while the collector thread could be inside recv() on it; the
        # collector then died on an uncaught TypeError and every later
        # reply went unrouted until its deadline.
        pool = ServerPool(
            small_db(), workers=1, config=EXACT, request_timeout=120
        )
        closers = []
        try:
            assert pool.evaluate("R(x)") == pytest.approx(0.8, abs=1e-9)
            with pool._lock:
                pool._reply_readers[0] = _RecordingReader(
                    pool._reply_readers[0], closers
                )
            time.sleep(0.3)  # the collector now waits on the recorder
            pool._processes[0].terminate()
            _await_respawn(pool)
            assert pool.evaluate("R(x)") == pytest.approx(0.8, abs=1e-9)
            deadline = time.monotonic() + 10
            while not closers:
                assert time.monotonic() < deadline, "reader never closed"
                time.sleep(0.05)
            assert closers == ["serverpool-collector"]
        finally:
            pool.close()

    def test_update_during_respawn_reaches_the_new_worker(self):
        # Updates broadcast while the supervisor spawns the replacement
        # (before and after its process starts) must reach the new
        # worker: they land on its queue, behind its snapshot.
        pool = ServerPool(
            small_db(), workers=1, config=EXACT, request_timeout=120
        )
        spawn = pool._spawn_worker
        updated = threading.Event()

        def update_around_spawn(shard, snapshot, queue):
            pool.update("R", (1,), 0.9)
            spawned = spawn(shard, snapshot, queue)
            pool.update("R", (2,), 0.5)
            updated.set()
            return spawned

        try:
            assert pool.evaluate("R(x)") == pytest.approx(0.8, abs=1e-9)
            pool._spawn_worker = update_around_spawn
            pool._processes[0].terminate()
            assert updated.wait(60), "no respawn"
            # 1 - (1 - 0.9)(1 - 0.5)
            assert pool.evaluate("R(x)") == pytest.approx(0.95, abs=1e-9)
            assert pool.health()["respawns"] == 1
        finally:
            pool.close()

    def test_crash_loop_degrades_to_inline(self):
        # A shard dying more than respawn_limit times inside the window
        # stops respawning and serves inline on the front — still
        # correct, flagged in health()/stats().
        pool = ServerPool(
            small_db(), workers=1, config=EXACT, request_timeout=120,
            respawn_limit=1, respawn_window=60.0,
        )
        try:
            assert pool.evaluate("R(x)") == pytest.approx(0.8, abs=1e-9)
            deadline = time.monotonic() + 60
            while not pool.health()["degraded"]:
                assert time.monotonic() < deadline, "never degraded"
                for shard_state in pool.health()["shards"]:
                    if shard_state["alive"]:
                        pool._processes[shard_state["shard"]].terminate()
                time.sleep(0.05)
            health = pool.health()
            assert health["ok"] and health["degraded"] == [0]
            # Serving continues, updates included, against the front db.
            assert pool.evaluate("R(x)") == pytest.approx(0.8, abs=1e-9)
            pool.update("R", (3,), 0.5)
            fresh_db = small_db()
            fresh_db.add("R", (3,), 0.5)
            expected = RouterEngine(exact_fallback=True).probability(
                parse("R(x)"), fresh_db
            )
            assert pool.evaluate("R(x)") == pytest.approx(expected, abs=1e-9)
            stats = pool.stats()
            assert stats.degraded == [0]
            assert stats.front_session is not None
        finally:
            pool.close()


class TestOverload:
    @pytest.mark.parametrize(
        "respawn_limit", [5, 0], ids=["respawned", "degraded"]
    )
    def test_replacement_replica_keeps_the_clamped_budget(
        self, respawn_limit
    ):
        # Overload mode clamps the Monte Carlo budget with a queued
        # configure message, which no snapshot carries: whatever takes
        # over a dead worker's shard while the clamp holds (a respawned
        # worker, or the front session once the shard degrades) must
        # still run clamped.
        pool = ServerPool(
            small_db(), workers=1,
            config=SessionConfig(compile_budget=0, mc_seed=3),
            overload_threshold=1e-12, overload_samples=500,
            respawn_limit=respawn_limit, request_timeout=120,
        )
        text = "R(x), S(x,y), T(y)"

        def drawn():
            family = pool.metrics_snapshot().get("repro_mc_samples_total")
            return sum(family["values"].values()) if family else 0

        def samples_per_read(probability):
            before = drawn()
            # A changed marginal misses the result cache.
            pool.update("R", (1,), probability)
            pool.evaluate(text)
            return drawn() - before

        try:
            pool.evaluate(text)  # the first queue wait enters overload
            assert samples_per_read(0.55) == 500
            os.kill(pool._processes[0].pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while True:
                health = pool.health()
                if health["respawns"] or health["degraded"]:
                    break
                assert time.monotonic() < deadline, "shard never replaced"
                time.sleep(0.05)
            assert (health["respawns"], health["degraded"]) == (
                (1, []) if respawn_limit else (0, [0])
            )
            assert samples_per_read(0.45) == 500
        finally:
            pool.close()

    def test_a_worker_backlog_enters_overload(self):
        # Requests wait on the worker's queue, behind each other's
        # messages.  With every message slowed by 40 ms and six callers,
        # that backlog is the queue wait the pool records, and it
        # switches overload mode on.
        pool = ServerPool(
            small_db(), workers=1,
            config=SessionConfig(
                exact_fallback=True, faults="seed=1,slow=1.0,slow_ms=40"
            ),
            overload_threshold=0.02, request_timeout=120,
        )
        values, errors = [], []

        def call():
            try:
                for _ in range(3):
                    values.append(pool.evaluate("R(x)"))
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=call) for _ in range(6)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            assert values == pytest.approx([0.8] * 18, abs=1e-9)
            snapshot = pool.metrics_snapshot()
            wait = snapshot["repro_pool_queue_wait_seconds"]["values"][()]
            assert wait["count"] == 18
            assert wait["sum"] / wait["count"] > 0.02
            transitions = snapshot[
                "repro_pool_overload_transitions_total"
            ]["values"]
            assert transitions.get(("enter",), 0) >= 1
        finally:
            pool.close()


class TestMonteCarloAcrossProcesses:
    def test_seeded_estimates_match_inline(self):
        # With a fixed seed, Monte Carlo answers do not depend on which
        # process samples them: worker processes hash strings with
        # their own salt, and the sampler must not see that.
        db = ProbabilisticDatabase.from_dict({
            "R": {("a",): 0.5, ("b",): 0.6, ("c",): 0.3},
            "S": {("a", "x"): 0.7, ("b", "x"): 0.4, ("b", "y"): 0.3,
                  ("c", "y"): 0.9},
            "T": {("x",): 0.8, ("y",): 0.2},
            "V": {("p", "a"): 0.9, ("p", "b"): 0.5, ("q", "b"): 0.7,
                  ("q", "c"): 0.4, ("r", "c"): 0.6},
        })
        # No compiled tier: both queries are #P-hard, so both sample.
        config = SessionConfig(mc_seed=7, compile_budget=None)
        results = []
        for workers in (0, 2):
            with ServerPool(
                db.copy(), workers=workers, config=config,
                request_timeout=120,
            ) as pool:
                results.append((
                    pool.evaluate("R(x), S(x,y), T(y)"),
                    pool.answers("Q(u) :- V(u,x), S(x,y), T(y)", 2),
                    pool.stats().combined.fallbacks,
                ))
        inline, pooled = results
        assert inline == pooled
        assert inline[2] == 2 and len(inline[1]) == 2


class TestOutOfBandMutation:
    def test_direct_front_db_mutation_triggers_resync(self):
        db = small_db()
        with ServerPool(
            db, workers=1, config=EXACT, request_timeout=120
        ) as pool:
            assert pool.evaluate("R(x)") == pytest.approx(0.8, abs=1e-9)
            before = pool.stats().combined
            # Mutate the front database directly — not through the pool.
            db.add("R", (3,), 0.5)
            expected = RouterEngine(exact_fallback=True).probability(
                parse("R(x)"), db
            )
            assert pool.evaluate("R(x)") == pytest.approx(expected, abs=1e-9)
            stats = pool.stats()
            assert stats.syncs == 1
            # The re-sync rebuilds the session but must not reset the
            # worker's serving history — counters stay monotone.
            assert stats.combined.prepared >= before.prepared
            assert stats.combined.safe_evaluations > before.safe_evaluations

    def test_mutation_before_a_respawn_still_reaches_every_shard(self):
        # The respawned worker's snapshot already holds the direct
        # mutation, but its peer's replica does not: the respawn must
        # not mark the replicas synced, so the next request re-syncs.
        texts = {}
        for text in ["R(x)", "T(y)", "R(x), S(x,y)", "S(x,y), T(y)",
                     "R(x), S(x,y), T(y)"]:
            shape = canonical_string(parse(text).boolean())
            texts.setdefault(shard_of(shape, 2), text)
        assert sorted(texts) == [0, 1]
        db = small_db()
        with ServerPool(
            db, workers=2, config=EXACT, request_timeout=120
        ) as pool:
            db.add("R", (2,), 0.9)
            db.add("T", (10,), 0.3)
            pool._processes[0].terminate()
            _await_respawn(pool)
            fresh = RouterEngine(exact_fallback=True)
            for text in texts.values():
                assert pool.evaluate(text) == pytest.approx(
                    fresh.probability(parse(text), db), abs=1e-9
                ), text
            assert pool.stats().syncs == 1


QUERY_SHAPES = [
    "R{t}(x), S{t}(x,y), T{t}(y)",   # #P-hard: compiled tier
    "R{t}(x), S{t}(x,y)",            # safe plan
]
ANSWER_SHAPE = "Q(x) :- R{t}(x), S{t}(x,y), T{t}(y)"


def _thread_db(t: int) -> dict:
    """Initial contents of thread ``t``'s private relation family."""
    return {
        f"R{t}": {(1,): 0.3 + 0.05 * t, (2,): 0.6},
        f"S{t}": {(1, 10): 0.7, (2, 10): 0.4, (2, 11): 0.5},
        f"T{t}": {(10,): 0.8, (11,): 0.25},
    }


class TestHammer:
    """N threads, mixed updates/queries, every response checked to 1e-9."""

    THREADS = 4
    OPS = 12

    def test_hammer(self):
        data = {}
        for t in range(self.THREADS):
            data.update(_thread_db(t))
        pool = ServerPool(
            ProbabilisticDatabase.from_dict(data),
            workers=2,
            config=EXACT,
            request_timeout=120,
        )
        failures = []
        barrier = threading.Barrier(self.THREADS)

        def worker(t: int) -> None:
            shadow = {name: dict(rows) for name, rows in _thread_db(t).items()}
            barrier.wait()
            try:
                for i in range(self.OPS):
                    if i % 3 == 2:
                        row, probability = (1,), 0.1 + ((7 * i + t) % 80) / 100
                        pool.update(f"R{t}", row, probability)
                        shadow[f"R{t}"][row] = probability
                    fresh_db = ProbabilisticDatabase.from_dict(shadow)
                    fresh = RouterEngine(exact_fallback=True)
                    text = QUERY_SHAPES[i % len(QUERY_SHAPES)].format(t=t)
                    got = pool.evaluate(text)
                    want = fresh.probability(parse(text), fresh_db)
                    if abs(got - want) > 1e-9:
                        failures.append((t, i, text, got, want))
                    if i % 4 == 1:
                        answer_text = ANSWER_SHAPE.format(t=t)
                        got_ranked = pool.answers(answer_text, 2)
                        want_ranked = fresh.answers(
                            parse(answer_text), fresh_db, 2
                        )
                        for (ga, gp), (wa, wp) in zip(got_ranked, want_ranked):
                            if ga != wa or abs(gp - wp) > 1e-9:
                                failures.append(
                                    (t, i, answer_text, got_ranked,
                                     want_ranked)
                                )
            except Exception as error:  # noqa: BLE001 - surfaced below
                failures.append((t, "exception", repr(error)))

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(self.THREADS)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            assert not failures, failures[:5]
            stats = pool.stats()
            assert stats.requests >= self.THREADS * self.OPS
            assert stats.updates == self.THREADS * (self.OPS // 3)
        finally:
            pool.close()
