"""A sharded pool of :class:`~repro.serve.session.QuerySession` workers.

One :class:`QuerySession` amortizes work across calls; a
:class:`ServerPool` amortizes it across *processes* for concurrent
traffic.  The moving parts:

* **Shape sharding.**  Requests are hash-partitioned by the canonical
  query shape (:func:`shard_of`), so every shape always lands on the
  same worker and that worker's prepared-query LRU and structural
  circuit cache stay hot.  Sharding also multiplies aggregate cache
  capacity: each worker only has to hold its own slice of the shape
  universe, where a single session would thrash its LRU.

* **A batching front.**  Requests issued concurrently (from many
  threads, or the HTTP server's handlers) park in a per-shard buffer;
  whichever thread finds the shard idle becomes the *driver* and
  flushes the whole buffer as one ``evaluate_many`` /
  ``answers_many`` message, so in-flight same-shape requests coalesce
  into a single vectorized circuit sweep inside the worker.

* **Version broadcast.**  Each worker holds a replica of the database.
  :meth:`ServerPool.update` validates against the front copy, then
  broadcasts the delta to every worker queue; per-queue FIFO order
  guarantees any request submitted after ``update`` returns observes
  it.  Direct mutations of the front database (not through the pool)
  are detected by version drift and repaired with a full snapshot
  broadcast before the next dispatch.

* **Supervision and respawn.**  Every worker exit (crash, OOM kill,
  injected fault) wakes a supervisor that reaps the shard, respawns it
  from the pool's base snapshot plus a bounded update log (replaying
  whatever FIFO broadcast the dead worker missed), and re-dispatches
  the shard's in-flight requests to the fresh process — callers see
  latency, not errors.  A crash-looping shard (too many deaths inside
  :attr:`respawn_window` seconds) degrades to inline evaluation on the
  front instead of poisoning the pool.  Replies travel over per-worker
  pipes, so a worker killed mid-reply corrupts only its own channel —
  never a shared result queue.

* **Deadlines, retry and admission.**  Each request carries an
  optional deadline; expiry purges the in-flight entry (no slot leak,
  no stale coalescing target) and retries once with capped backoff on
  the respawned or inline path.  A bounded per-shard queue depth sheds
  over-limit requests fast (:class:`PoolOverloadError` — never
  queued), and an overload mode (queue-wait EWMA above threshold)
  degrades gracefully by clamping Monte Carlo sample budgets.

Monte Carlo work needs no pool machinery of its own: an unsafe query
is sampled inside the worker that owns its shape, like every other
request.

``workers=0`` runs everything inline on one lock-guarded session in
this process — same API, no subprocesses — which keeps doctests, small
deployments and fork-less platforms simple::

    >>> from repro.db.database import ProbabilisticDatabase
    >>> db = ProbabilisticDatabase.from_dict(
    ...     {"R": {(1,): 0.5}, "S": {(1, 2): 0.4}})
    >>> with ServerPool(db, workers=0) as pool:
    ...     round(pool.evaluate("R(x), S(x,y)"), 6)
    0.2
"""

from __future__ import annotations

import itertools
import threading
import time
import zlib
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..core.parser import parse
from ..core.query import ConjunctiveQuery, canonical_string
from ..core.union import AnyQuery, UnionQuery
from ..db.database import ProbabilisticDatabase
from ..db.relation import Probability, Value
from ..engines.base import Answer
from ..obs.metrics import Ewma, MetricsRegistry, merge_snapshots
from .faults import build_injector
from .session import QueryLike, QuerySession, SessionStats

__all__ = [
    "PoolOverloadError",
    "PoolStats",
    "PoolTimeoutError",
    "ServerPool",
    "SessionConfig",
    "WorkerDiedError",
    "WorkerError",
    "shard_of",
]


class WorkerError(RuntimeError):
    """An exception raised inside a worker process, re-raised here."""


class WorkerDiedError(WorkerError):
    """A worker process exited while this request was in flight.

    Internal paths catch this and retry on the respawned (or inline)
    path; it only reaches a caller when every retry avenue failed.
    """


class PoolTimeoutError(TimeoutError):
    """A request's deadline expired before its worker replied.

    Subclasses the builtin :class:`TimeoutError`, so callers written
    against ``future.result(timeout)`` semantics keep working.  The
    pool purges the stale in-flight entry before raising — a late
    reply from a stalled worker is dropped, never misrouted.
    """


class PoolOverloadError(RuntimeError):
    """The request was shed at admission: its shard's queue is full.

    Raised *fast*, before any queueing — the HTTP front maps it to
    ``503`` with ``Retry-After``.  Shedding is load protection, not
    failure: the answer for this query is still computable, just not
    at the current queue depth.
    """


def shard_of(shape: str, workers: int) -> int:
    """Stable shard index for a canonical query shape.

    Uses CRC-32 rather than :func:`hash` — Python string hashing is
    salted per process, and the whole point is that the same shape maps
    to the same worker across the front, restarts and tests.

    >>> shard_of("R(v0), S(v0, v1)", 4) == shard_of("R(v0), S(v0, v1)", 4)
    True
    """
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    return zlib.crc32(shape.encode("utf-8")) % workers


@dataclass(frozen=True)
class SessionConfig:
    """Picklable recipe for building one worker's :class:`QuerySession`.

    Engines themselves do not cross process boundaries — each worker
    rebuilds its own stack from this config plus a database snapshot,
    so every shard gets private caches and its own sampling backend.
    """

    exact_fallback: bool = False
    mc_samples: int = 20_000
    mc_seed: Optional[int] = None
    compile_budget: Optional[int] = 10_000
    mc_backend: str = "auto"
    max_prepared: int = 256
    #: When False, every worker gets a disabled (null) registry —
    #: the knob ``benchmarks/bench_obs.py`` uses to price telemetry.
    metrics_enabled: bool = True
    #: Fault-injection spec for the chaos harness
    #: (:mod:`repro.serve.faults`), e.g. ``"seed=7,kill=0.01"``.
    #: ``None`` (production) leaves the worker loop fault-free; the
    #: ``REPRO_FAULTS`` environment variable arms it process-wide.
    faults: Optional[str] = None

    def build_session(
        self,
        db: ProbabilisticDatabase,
        metrics: Optional[MetricsRegistry] = None,
    ) -> QuerySession:
        registry = (
            metrics if metrics is not None
            else MetricsRegistry(enabled=self.metrics_enabled)
        )
        return QuerySession(
            db,
            exact_fallback=self.exact_fallback,
            mc_samples=self.mc_samples,
            mc_seed=self.mc_seed,
            compile_budget=self.compile_budget,
            mc_backend=self.mc_backend,
            max_prepared=self.max_prepared,
            metrics=registry,
        )


@dataclass
class PoolStats:
    """Aggregated serving statistics across the pool.

    ``workers`` holds one :class:`SessionStats` per worker (in shard
    order); the front-side counters describe dispatch behaviour.
    """

    workers: List[SessionStats] = field(default_factory=list)
    #: Individual requests accepted by the front.
    requests: int = 0
    #: Worker messages dispatched by the batching front.
    batches: int = 0
    #: Requests that shared a dispatch with at least one other request.
    coalesced: int = 0
    #: Single-tuple update broadcasts.
    updates: int = 0
    #: Full-snapshot re-syncs forced by out-of-band front-db mutation.
    syncs: int = 0
    #: Requests whose deadline expired before a reply (entry purged).
    timeouts: int = 0
    #: Requests shed at admission (never queued).
    sheds: int = 0
    #: Worker processes respawned by the supervisor.
    respawns: int = 0
    #: Shards degraded to inline front evaluation after crash-looping.
    degraded: List[int] = field(default_factory=list)
    #: The front's fallback session (serves degraded shards), if built.
    front_session: Optional[SessionStats] = None

    @property
    def combined(self) -> SessionStats:
        """The field-wise sum of every worker's session counters."""
        parts = list(self.workers)
        if self.front_session is not None:
            parts.append(self.front_session)
        return SessionStats.merged(parts)

    def describe(self) -> str:
        extra = ""
        if self.timeouts or self.sheds or self.respawns or self.degraded:
            extra = (
                f", {self.timeouts} timeouts, {self.sheds} shed, "
                f"{self.respawns} respawns"
            )
            if self.degraded:
                extra += f", degraded shards {self.degraded}"
        return (
            f"{len(self.workers)} workers, {self.requests} requests in "
            f"{self.batches} batches ({self.coalesced} coalesced), "
            f"{self.updates} updates, {self.syncs} syncs{extra}; "
            f"combined: {self.combined.describe()}"
        )


# ----------------------------------------------------------------------
# Worker process protocol
# ----------------------------------------------------------------------
#
# Requests are (op, request_id, payload) tuples on a per-worker queue;
# replies are (request_id, ok, payload) sent back on that worker's own
# reply pipe (one per worker: a worker killed mid-send truncates only
# its own channel, which the supervisor discards on respawn).  "update",
# "sync" and "configure" are fire-and-forget (the front validated them
# already); everything else is answered at most once — the reply is
# deliberately suppressed under the "drop" fault.  Failure replies are
# ("error" | "invalid" | "timeout", message) pairs so deadline expiry
# inside the worker surfaces as PoolTimeoutError and a client error as
# ValueError, not WorkerError.

_STOP = "stop"

#: Ops whose payload is ``(items, deadline)`` — the worker drops the
#: whole batch unanswered-as-timeout when every deadline has passed.
_DEADLINE_OPS = frozenset({"evaluate_many", "answers_many"})


def _worker_main(config, snapshot, request_queue, reply, worker_index) -> None:
    """Entry point of one worker process."""
    db = ProbabilisticDatabase.from_snapshot(snapshot)
    session = config.build_session(db)
    injector = build_injector(config.faults, worker_index)
    while True:
        op, request_id, payload = request_queue.get()
        fault = injector.before(op) if injector is not None else None
        if op == _STOP:
            reply.send((request_id, True, None))
            return
        if op == "update":
            db.add(*payload)
            continue
        if op == "configure":
            session.set_sample_budget(payload["mc_samples"])
            continue
        if op == "sync":
            db = ProbabilisticDatabase.from_snapshot(payload)
            stats = session.stats
            # The rebuilt session starts cold, but the worker's serving
            # history doesn't reset — keep counters monotone for /stats,
            # and re-use the metrics registry (re-registration hands the
            # new session the existing families) for /metrics.
            session = config.build_session(db, metrics=session.metrics)
            session.stats = stats
            continue
        if op in _DEADLINE_OPS:
            deadline = payload[1]
            if deadline is not None and time.time() > deadline:
                # The batch expired while queued — don't burn compute
                # on answers nobody is waiting for.
                if fault != "drop":
                    reply.send((
                        request_id, False,
                        ("timeout", "deadline expired in worker queue"),
                    ))
                continue
        try:
            result = _worker_execute(session, op, payload)
        except Exception as error:  # noqa: BLE001 - forwarded to the front
            if fault != "drop":
                reply.send((request_id, False, _error_reply(error)))
        else:
            if fault != "drop":
                reply.send((request_id, True, result))


def _error_reply(error: Exception) -> tuple:
    """The failure payload for an exception raised by a worker op.

    A :class:`ValueError` is the client's fault (bad query, wrong
    arity), so it travels as ``"invalid"`` with its bare message and the
    front re-raises a ``ValueError`` — the same 400 an inline pool gives.
    """
    if isinstance(error, ValueError):
        return ("invalid", str(error))
    return ("error", f"{type(error).__name__}: {error}")


def _worker_execute(session: QuerySession, op: str, payload):
    if op == "evaluate_many":
        return session.evaluate_many(payload[0])
    if op == "answers_many":
        items = payload[0]
        rankings = session.answers_many([query for query, _k in items])
        return [
            ranking if k is None else ranking[:k]
            for (_query, k), ranking in zip(items, rankings)
        ]
    if op == "stats":
        return session.stats
    if op == "metrics":
        return session.metrics.snapshot()
    raise ValueError(f"unknown worker op {op!r}")


@dataclass
class _PendingItem:
    kind: str  # "evaluate" | "answers"
    query: AnyQuery
    k: Optional[int]
    future: Future
    #: ``perf_counter`` at buffer entry — dispatch observes the wait.
    enqueued: float = 0.0
    #: Absolute ``time.time()`` deadline, or None (wait forever).
    deadline: Optional[float] = None


#: One in-flight worker message: futures awaiting the reply, the shard
#: that owns it, the payload (for supervisor re-dispatch after a worker
#: death) and whether it has already been retried once.
@dataclass
class _Inflight:
    op: str
    futures: List[Future]
    shard: int
    payload: object = None
    retried: bool = False


class ServerPool:
    """Shard :class:`QuerySession` serving across worker processes.

    Args:
        db: the authoritative database.  Mutate it through
            :meth:`update` to get incremental broadcast; direct
            mutation is tolerated but costs a full re-sync.
        workers: number of worker processes; ``0`` serves inline from
            this process (one lock-guarded session, no subprocesses).
        config: per-worker :class:`SessionConfig`; defaults match
            :class:`QuerySession` defaults.
        start_method: :mod:`multiprocessing` start method.  The default
            ``"spawn"`` is safe regardless of the front's threads (the
            supervisor also respawns with it); pass ``"fork"`` on POSIX
            for faster startup of fork-safe workloads.
        request_timeout: default per-request deadline in seconds
            (None = wait forever).  Individual calls override it via
            their ``timeout`` argument.
        request_retries: how many times a timed-out request is retried
            (with capped exponential backoff) before
            :class:`PoolTimeoutError` reaches the caller.
        retry_backoff: initial backoff in seconds between retries;
            doubles per attempt, capped at 1s.
        max_queue_depth: per-shard admission bound — requests beyond
            this many unresolved items on one shard are shed
            immediately with :class:`PoolOverloadError` (never queued).
            None disables shedding.
        respawn_limit / respawn_window: a shard dying more than
            ``respawn_limit`` times within ``respawn_window`` seconds
            is crash-looping: it degrades to inline evaluation on the
            front instead of respawning again.
        update_log_limit: bound on the replay log used to rehydrate
            respawned workers; exceeding it refreshes the base snapshot
            and clears the log.
        overload_threshold: queue-wait EWMA (seconds) above which the
            pool enters overload mode and clamps every worker's Monte
            Carlo sample budget (``overload_samples``, default a tenth
            of the configured budget); recovery at half the threshold.
            None disables overload degradation.

    Thread-safe: any number of threads may call :meth:`evaluate`,
    :meth:`answers`, :meth:`update` etc. concurrently; concurrent
    same-shard requests coalesce into batched sweeps.  Use as a
    context manager (or call :meth:`close`) for graceful shutdown.
    """

    def __init__(
        self,
        db: ProbabilisticDatabase,
        *,
        workers: int = 4,
        config: Optional[SessionConfig] = None,
        start_method: str = "spawn",
        request_timeout: Optional[float] = None,
        request_retries: int = 1,
        retry_backoff: float = 0.05,
        max_queue_depth: Optional[int] = None,
        respawn_limit: int = 3,
        respawn_window: float = 30.0,
        update_log_limit: int = 512,
        overload_threshold: Optional[float] = None,
        overload_samples: Optional[int] = None,
        scatter_policy: object = None,  # ignored: perfbench/run.py still passes it
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if request_retries < 0:
            raise ValueError(
                f"request_retries must be >= 0, got {request_retries}"
            )
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        self.db = db
        self.config = config if config is not None else SessionConfig()
        self.workers = workers
        self.request_timeout = request_timeout
        self.request_retries = request_retries
        self.retry_backoff = retry_backoff
        self.max_queue_depth = max_queue_depth
        self.respawn_limit = respawn_limit
        self.respawn_window = respawn_window
        self.update_log_limit = update_log_limit
        self.overload_threshold = overload_threshold
        self.overload_samples = overload_samples
        #: Queue-wait smoothing that drives the overload detector.
        self._wait_ewma = Ewma(alpha=0.2, initial=0.0)
        self._overloaded = False
        self._lock = threading.Lock()
        self._closed = False
        self._requests = 0
        self._batches = 0
        self._coalesced = 0
        self._updates = 0
        self._syncs = 0
        self._timeouts = 0
        self._sheds = 0
        self._respawns = 0
        #: Front-side registry: dispatch and queueing metrics live
        #: here; :meth:`metrics_snapshot` merges the workers' registries
        #: in (inline mode shares this registry with the session).
        self.metrics = MetricsRegistry(enabled=self.config.metrics_enabled)
        self._metric_requests = self.metrics.counter(
            "repro_pool_requests_total",
            "Requests accepted by the pool front",
            ("kind",),
        )
        self._metric_inflight = self.metrics.gauge(
            "repro_pool_inflight_requests",
            "Requests accepted by the front but not yet resolved",
        )
        self._metric_queue_wait = self.metrics.histogram(
            "repro_pool_queue_wait_seconds",
            "Time a request spent parked in its shard buffer before "
            "the driving thread dispatched it",
        )
        self._metric_batch_size = self.metrics.histogram(
            "repro_pool_batch_size",
            "Requests per dispatched worker message (coalescing depth)",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
        )
        self._metric_timeouts = self.metrics.counter(
            "repro_pool_request_timeouts_total",
            "Requests whose deadline expired before a worker reply "
            "(the stale in-flight entry is purged)",
        )
        self._metric_respawns = self.metrics.counter(
            "repro_pool_worker_respawns_total",
            "Worker processes respawned by the supervisor",
            ("shard",),
        )
        self._metric_shed = self.metrics.counter(
            "repro_pool_shed_total",
            "Requests shed at admission, by reason",
            ("reason",),
        )
        self._metric_degraded = self.metrics.gauge(
            "repro_pool_degraded_shards",
            "Shards currently degraded to inline front evaluation",
        )
        self._metric_overload = self.metrics.gauge(
            "repro_pool_overload_mode",
            "1 while the pool is clamping Monte Carlo budgets under "
            "overload",
        )
        self._metric_overload_transitions = self.metrics.counter(
            "repro_pool_overload_transitions_total",
            "Overload mode transitions",
            ("state",),
        )
        #: Fallback serving for degraded shards (and twice-failed
        #: retries): one lock-guarded session over the authoritative
        #: front database, built lazily on first degrade.
        self._fallback: Optional[QuerySession] = None
        self._fallback_lock = threading.RLock()
        if workers == 0:
            self._session: Optional[QuerySession] = (
                self.config.build_session(db, metrics=self.metrics)
            )
            self._session_lock = threading.RLock()
            return
        self._session = None
        import multiprocessing

        self._ctx = multiprocessing.get_context(start_method)
        snapshot = db.snapshot()
        #: Respawn rehydration state: base snapshot + the updates
        #: broadcast since it was taken.  ``base + log`` always equals
        #: the current front database, so a respawned worker replays
        #: exactly the FIFO traffic its predecessor missed.
        self._log_snapshot = snapshot
        self._update_log: Deque[tuple] = deque()
        self._request_queues = []
        self._reply_readers: List[Optional[object]] = []
        #: Readers of dead workers, waiting for the collector to close them.
        self._detached_readers: List[object] = []
        self._processes = []
        for shard in range(workers):
            queue, process, reader = self._spawn_worker(shard, snapshot)
            self._request_queues.append(queue)
            self._processes.append(process)
            self._reply_readers.append(reader)
        self._synced_versions = (db.structure_version, db.version)
        #: request id -> in-flight record for dispatched messages.
        self._pending: Dict[int, _Inflight] = {}
        self._ids = itertools.count()
        self._buffers: List[List[_PendingItem]] = [[] for _ in range(workers)]
        self._driving = [False] * workers
        #: Unresolved items per shard (buffered + dispatched) — the
        #: admission counter behind ``max_queue_depth``.
        self._shard_load = [0] * workers
        self._degraded = [False] * workers
        self._deaths: List[Deque[float]] = [deque() for _ in range(workers)]
        self._last_exit: List[Optional[int]] = [None] * workers
        self._collector_stop = False
        self._collector = threading.Thread(
            target=self._collect, name="serverpool-collector", daemon=True
        )
        self._collector.start()
        self._supervisor = threading.Thread(
            target=self._supervise, name="serverpool-supervisor", daemon=True
        )
        self._supervisor.start()

    def _spawn_worker(self, shard: int, snapshot) -> tuple:
        """Start one worker process; returns (queue, process, reader)."""
        queue = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(self.config, snapshot, queue, writer, shard),
            daemon=True,
        )
        process.start()
        # Close the front's copy of the write end: once the worker
        # dies, the pipe EOFs and the collector can tell a truncated
        # reply from a pending one.
        writer.close()
        return queue, process, reader

    # ------------------------------------------------------------------
    # Public request API
    # ------------------------------------------------------------------

    def evaluate(
        self, query: QueryLike, timeout: Optional[float] = None
    ) -> float:
        """``p(q)``, served by the query shape's home worker.

        ``timeout`` (seconds) overrides the pool's ``request_timeout``
        for this call; expiry raises :class:`PoolTimeoutError` after
        ``request_retries`` re-dispatches with backoff.
        """
        return self._call("evaluate", query, None, timeout)

    def evaluate_many(
        self, queries: Sequence[QueryLike], timeout: Optional[float] = None
    ) -> List[float]:
        """Evaluate a batch; shards fan out and run concurrently.

        The whole batch is buffered before any dispatch, so each shard
        receives at most one ``evaluate_many`` message for it — same-
        shard queries share a worker sweep instead of paying one round
        trip each.
        """
        return self._call_many(
            [("evaluate", query, None) for query in queries], timeout
        )

    def answers(
        self, query: QueryLike, k: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> List[Answer]:
        """Ranked answer tuples of one query."""
        return self._call("answers", query, k, timeout)

    def answers_many(
        self, queries: Sequence[QueryLike], k: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> List[List[Answer]]:
        """Ranked answers for a batch of queries (buffered like
        :meth:`evaluate_many`)."""
        return self._call_many(
            [("answers", query, k) for query in queries], timeout
        )

    def _call(self, kind, query, k, timeout):
        return self._call_many([(kind, query, k)], timeout)[0]

    def _call_many(self, items, timeout):
        """Submit, await, and retry timed-out items with backoff.

        Retries re-enter the normal submission path, so a retried
        request lands on the respawned worker (or the degraded inline
        path) — whatever currently serves its shard.
        """
        timeout = timeout if timeout is not None else self.request_timeout
        futures = self._request_many(items, timeout)
        results: List[object] = [None] * len(items)
        stale: List[int] = []
        for index, future in enumerate(futures):
            try:
                results[index] = self._result(future, timeout)
            except PoolTimeoutError:
                stale.append(index)
        if not stale:
            return results
        last_error: Optional[PoolTimeoutError] = None
        backoff = self.retry_backoff
        for attempt in range(self.request_retries):
            time.sleep(min(backoff * (2 ** attempt), 1.0))
            retry_futures = self._request_many(
                [items[index] for index in stale], timeout
            )
            still_stale = []
            for index, future in zip(stale, retry_futures):
                try:
                    results[index] = self._result(future, timeout)
                except PoolTimeoutError as error:
                    still_stale.append(index)
                    last_error = error
            stale = still_stale
            if not stale:
                return results
        if stale:
            raise last_error if last_error is not None else PoolTimeoutError(
                f"request timed out after {timeout}s"
            )
        return results

    def _result(self, future: Future, timeout: Optional[float]):
        """Await one reply; purge the in-flight entry on expiry.

        Without the purge, a timed-out request would leak its
        ``_pending`` slot forever and a late reply from a stalled
        worker could land on a future its caller abandoned long ago.
        """
        try:
            return future.result(timeout)
        except PoolTimeoutError:
            # A worker-reported deadline expiry stored on the future —
            # the reply already cleaned up its _pending slot.
            raise
        except FutureTimeoutError:
            self._purge(future)
            # The purge resolved the future (exception or a racing
            # reply); re-read it so a reply that won the race still
            # reaches the caller.
            try:
                return future.result(0)
            except FutureTimeoutError:  # pragma: no cover - purge always resolves
                raise PoolTimeoutError(
                    f"request timed out after {timeout}s"
                ) from None

    def _purge(self, future: Future) -> None:
        """Drop a timed-out future from pending/buffers and count it.

        The future is resolved *outside* the lock: its done-callbacks
        (inflight gauge, shard-load admission counter) re-acquire it.
        """
        with self._lock:
            found = False
            for request_id, entry in list(self._pending.items()):
                if future in entry.futures:
                    found = True
                    if all(f.done() or f is future for f in entry.futures):
                        # Last caller gone: the reply (if it ever
                        # comes) has nobody to serve — drop the slot
                        # so it can't linger as a stale coalescing
                        # target.
                        del self._pending[request_id]
                    break
            if not found:
                for buffered in self._buffers:
                    for item in list(buffered):
                        if item.future is future:
                            buffered.remove(item)
                            break
            self._timeouts += 1
        if not future.done():
            future.set_exception(
                PoolTimeoutError("request deadline expired")
            )
        self._metric_timeouts.inc()

    def update(
        self, relation: str, row: Sequence[Value], probability: Probability
    ) -> None:
        """Insert or re-weight one tuple, broadcast to every worker.

        Validation happens on the front copy first, so a bad update
        raises here and never reaches (or diverges) the replicas.
        After this returns, every subsequently submitted request
        observes the change (per-worker queues are FIFO).  The update
        also lands in the bounded replay log, so a worker respawned
        later still observes it.
        """
        if self._session is not None:
            self._check_open()
            with self._session_lock:
                self._session.update(relation, tuple(row), probability)
            with self._lock:
                self._updates += 1
            return
        with self._lock:
            self._check_open()
            self._ensure_synced_locked()
            self.db.add(relation, tuple(row), probability)
            payload = (relation, tuple(row), probability)
            message = ("update", None, payload)
            for queue in self._request_queues:
                if queue is not None:
                    queue.put(message)
            self._synced_versions = (
                self.db.structure_version, self.db.version
            )
            self._updates += 1
            self._update_log.append(payload)
            if len(self._update_log) > self.update_log_limit:
                # Compact: fold the log into a fresh base snapshot so
                # respawn replay stays O(update_log_limit).
                self._log_snapshot = self.db.snapshot()
                self._update_log.clear()

    def stats(self) -> PoolStats:
        """Aggregate per-worker :class:`SessionStats` plus front counters."""
        with self._lock:
            front = PoolStats(
                requests=self._requests,
                batches=self._batches,
                coalesced=self._coalesced,
                updates=self._updates,
                syncs=self._syncs,
                timeouts=self._timeouts,
                sheds=self._sheds,
                respawns=self._respawns,
            )
            if self._session is None:
                front.degraded = [
                    shard for shard in range(self.workers)
                    if self._degraded[shard]
                ]
            fallback = self._fallback
        if fallback is not None:
            front.front_session = fallback.stats
        if self._session is not None:
            front.workers = [self._session.stats]
            return front
        futures = []
        with self._lock:
            self._check_open()
            for shard in range(self.workers):
                if self._degraded[shard]:
                    futures.append(None)
                    continue
                future = Future()
                request_id = next(self._ids)
                self._pending[request_id] = _Inflight(
                    "stats", [future], shard
                )
                self._request_queues[shard].put(("stats", request_id, None))
                futures.append(future)
        workers = []
        for future in futures:
            if future is None:
                workers.append(SessionStats())
                continue
            try:
                workers.append(self._result(future, self.request_timeout))
            except (WorkerDiedError, PoolTimeoutError):
                workers.append(SessionStats())
        front.workers = workers
        return front

    def metrics_snapshot(self) -> dict:
        """One merged metrics snapshot: the front plus every worker.

        Worker registries come back as picklable snapshots; counters
        sum and histograms merge bucket-wise
        (:func:`~repro.obs.merge_snapshots`), so the result renders
        directly as the pool's ``/metrics`` exposition.  Inline mode
        (``workers=0``) shares one registry between front and session,
        so its snapshot already carries both.  Degraded (or freshly
        dead) shards are skipped — a scrape must not fail because a
        worker did.
        """
        snapshots = [self.metrics.snapshot()]
        if self._session is None:
            futures = []
            with self._lock:
                self._check_open()
                for shard in range(self.workers):
                    if self._degraded[shard]:
                        continue
                    future = Future()
                    request_id = next(self._ids)
                    self._pending[request_id] = _Inflight(
                        "metrics", [future], shard
                    )
                    self._request_queues[shard].put(
                        ("metrics", request_id, None)
                    )
                    futures.append(future)
            for future in futures:
                try:
                    snapshots.append(
                        self._result(future, self.request_timeout)
                    )
                except (WorkerDiedError, PoolTimeoutError):
                    continue
        return merge_snapshots(*snapshots)

    def health(self) -> dict:
        """Liveness report: overall ``ok`` plus per-shard worker status.

        A shard is healthy when its worker is alive *or* it has been
        degraded to (still-correct) inline serving; ``ok`` is the
        conjunction, with ``degraded`` listed separately so a scraper
        can tell "healthy", "degraded but serving" and "closed" apart.
        """
        if self._session is not None:
            return {
                "ok": not self._closed,
                "mode": "inline",
                "workers": 0,
                "shards": [],
            }
        with self._lock:
            closed = self._closed
            degraded = list(self._degraded)
            respawns = self._respawns
            shards = [
                {
                    "shard": shard,
                    "alive": process.is_alive(),
                    "pid": process.pid,
                    "degraded": degraded[shard],
                    "last_exit": self._last_exit[shard],
                }
                for shard, process in enumerate(self._processes)
            ]
        ok = (
            not closed
            and all(
                entry["alive"] or entry["degraded"] for entry in shards
            )
        )
        return {
            "ok": ok,
            "mode": "pool",
            "workers": self.workers,
            "respawns": respawns,
            "degraded": [s for s in range(self.workers) if degraded[s]],
            "shards": shards,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: drain queues, stop workers, join threads.

        Idempotent.  Stop messages queue *behind* all previously
        submitted work, so in-flight requests complete first.
        """
        if self._session is not None:
            self._closed = True
            return
        with self._lock:
            if self._closed:
                return
            self._closed = True
            futures = []
            for shard in range(self.workers):
                if self._degraded[shard]:
                    futures.append(None)
                    continue
                future = Future()
                request_id = next(self._ids)
                self._pending[request_id] = _Inflight(
                    _STOP, [future], shard
                )
                self._request_queues[shard].put((_STOP, request_id, None))
                futures.append(future)
        for future, process in zip(futures, self._processes):
            if future is None:
                continue
            try:
                future.result(timeout if process.is_alive() else 0.1)
            except Exception:  # noqa: BLE001 - worker already dead
                pass
        with self._lock:
            self._collector_stop = True
        self._collector.join(timeout)
        self._supervisor.join(timeout)
        for process in self._processes:
            process.join(timeout)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
        for queue in self._request_queues:
            if queue is not None:
                queue.close()
        for reader in self._reply_readers + self._detached_readers:
            if reader is not None:
                reader.close()

    def __enter__(self) -> "ServerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Batching front internals
    # ------------------------------------------------------------------

    def _parse(self, query: QueryLike) -> AnyQuery:
        if isinstance(query, str):
            return parse(query)
        if not isinstance(query, (ConjunctiveQuery, UnionQuery)):
            raise TypeError(
                f"expected query text, ConjunctiveQuery or UnionQuery, "
                f"got {query!r}"
            )
        return query

    def _request_many(
        self,
        items: Sequence[Tuple[str, QueryLike, Optional[int]]],
        timeout: Optional[float] = None,
    ) -> List[Future]:
        """Buffer a whole batch, then drive each touched shard once.

        Buffering before dispatch is what makes single-caller batches
        coalesce: all same-shard items ride one worker message (and one
        circuit sweep) instead of one round trip each.  Items from
        other threads that land in a touched buffer meanwhile are
        flushed by whichever driver reaches them first.  Items whose
        shard is over ``max_queue_depth`` are shed immediately; items
        whose shard is degraded are served inline on the front.
        """
        parsed = [
            (kind, self._parse(query), k) for kind, query, k in items
        ]
        deadline = time.time() + timeout if timeout is not None else None
        futures: List[Future] = []
        if self._session is not None:
            self._check_open()
            for kind, query, k in parsed:
                future: Future = Future()
                self._serve_with_session(
                    self._session, self._session_lock, kind, query, k, future
                )
                futures.append(future)
            return futures
        to_drive = []
        inline: List[Tuple[str, AnyQuery, Optional[int], Future]] = []
        with self._lock:
            self._check_open()
            self._ensure_synced_locked()
            for kind, query, k in parsed:
                shape = canonical_string(
                    query.boolean() if kind == "evaluate" else query
                )
                shard = shard_of(shape, self.workers)
                future = Future()
                futures.append(future)
                if (
                    not self._degraded[shard]
                    and self.max_queue_depth is not None
                    and self._shard_load[shard] >= self.max_queue_depth
                ):
                    # Shed fast: never queued, never dispatched — the
                    # cheapest possible "try again later".
                    self._sheds += 1
                    self._metric_shed.labels("queue_depth").inc()
                    future.set_exception(PoolOverloadError(
                        f"shard {shard} is over its queue depth "
                        f"({self.max_queue_depth}); retry later"
                    ))
                    continue
                self._requests += 1
                self._metric_requests.labels(kind).inc()
                self._metric_inflight.inc()
                if self._degraded[shard]:
                    future.add_done_callback(self._request_done)
                    inline.append((kind, query, k, future))
                    continue
                self._shard_load[shard] += 1
                future.add_done_callback(
                    lambda f, shard=shard: self._request_done(f, shard)
                )
                self._buffers[shard].append(
                    _PendingItem(
                        kind, query, k, future, time.perf_counter(), deadline
                    )
                )
                if not self._driving[shard]:
                    self._driving[shard] = True
                    to_drive.append(shard)
        for kind, query, k, future in inline:
            self._serve_fallback(kind, query, k, future)
        for shard in to_drive:
            self._drive(shard)
        return futures

    def _fallback_session(self) -> QuerySession:
        """The front's own session over the authoritative database.

        Serves degraded shards and twice-failed retries.  Reads
        ``self.db`` directly — updates keep flowing through
        :meth:`update`, and the session's version-snapshot invalidation
        picks them up exactly as a worker replica would.
        """
        with self._fallback_lock:
            if self._fallback is None:
                self._fallback = self.config.build_session(
                    self.db, metrics=self.metrics
                )
            return self._fallback

    def _serve_fallback(
        self, kind: str, query: AnyQuery, k: Optional[int],
        future: Future,
    ) -> None:
        session = self._fallback_session()
        with self._lock:
            self._batches += 1
        self._metric_batch_size.observe(1)
        self._execute_with_session(
            session, self._fallback_lock, kind, query, k, future
        )

    def _serve_with_session(
        self, session, lock, kind: str, query: AnyQuery,
        k: Optional[int], future: Future,
    ) -> None:
        """The inline (workers=0) request path."""
        with self._lock:
            self._requests += 1
            self._batches += 1
        self._metric_requests.labels(kind).inc()
        self._metric_inflight.inc()
        self._metric_batch_size.observe(1)  # inline: no coalescing front
        future.add_done_callback(self._request_done)
        self._execute_with_session(session, lock, kind, query, k, future)

    @staticmethod
    def _execute_with_session(
        session, lock, kind: str, query: AnyQuery,
        k: Optional[int], future: Future,
    ) -> None:
        try:
            with lock:
                if kind == "evaluate":
                    result = session.evaluate(query)
                else:
                    result = session.answers(query, k)
        except Exception as error:  # noqa: BLE001 - delivered via future
            if not future.done():
                future.set_exception(error)
        else:
            if not future.done():
                future.set_result(result)

    def _drive(self, shard: int) -> None:
        """Flush the shard's buffer until it runs dry.

        Exactly one thread drives a shard at a time; it re-checks the
        buffer after every flush so requests parked by other threads
        while it was dispatching ride the next message.
        """
        while True:
            with self._lock:
                batch = self._buffers[shard]
                if not batch:
                    self._driving[shard] = False
                    return
                self._buffers[shard] = []
            self._dispatch(shard, batch)

    def _request_done(
        self, _future: Future, shard: Optional[int] = None
    ) -> None:
        self._metric_inflight.dec()
        if shard is not None:
            with self._lock:
                self._shard_load[shard] -= 1

    def _dispatch(self, shard: int, batch: List[_PendingItem]) -> None:
        now = time.perf_counter()
        waits = [now - item.enqueued for item in batch]
        for wait in waits:
            self._metric_queue_wait.observe(wait)
        self._metric_batch_size.observe(len(batch))
        wall_now = time.time()
        expired = [
            item for item in batch
            if item.deadline is not None and wall_now > item.deadline
        ]
        batch = [item for item in batch if item not in expired]
        for item in expired:
            # Expired while parked: shed the compute, honest timeout.
            with self._lock:
                self._timeouts += 1
            self._metric_timeouts.inc()
            if not item.future.done():
                item.future.set_exception(
                    PoolTimeoutError("deadline expired in shard buffer")
                )
        evaluates = [item for item in batch if item.kind == "evaluate"]
        answers = [item for item in batch if item.kind == "answers"]
        error = None
        fallback_items: List[_PendingItem] = []
        with self._lock:
            for wait in waits:
                self._wait_ewma.observe(wait)
            self._check_overload_locked()
            # Re-check under the lock: the pool may have closed (the
            # STOP message is already queued) since this batch was
            # submitted — enqueueing now would strand these futures
            # with no reply ever coming.  (A dead worker is fine: the
            # supervisor sweeps _pending and re-dispatches.)
            if self._closed:
                error = RuntimeError("ServerPool is closed")
            elif self._request_queues[shard] is None:
                # Degraded while this batch was parked: the supervisor
                # swept the buffer before we popped it, or raced us —
                # serve the batch on the fallback session instead.
                fallback_items = evaluates + answers
            else:
                for kind, items in (
                    ("evaluate", evaluates), ("answers", answers)
                ):
                    if not items:
                        continue
                    if len(items) > 1:
                        self._coalesced += len(items)
                    deadlines = [item.deadline for item in items]
                    deadline = (
                        None if any(d is None for d in deadlines)
                        else max(deadlines)
                    )
                    request_id = next(self._ids)
                    if kind == "evaluate":
                        op = "evaluate_many"
                        payload = ([item.query for item in items], deadline)
                    else:
                        op = "answers_many"
                        payload = (
                            [(item.query, item.k) for item in items],
                            deadline,
                        )
                    self._pending[request_id] = _Inflight(
                        op, [i.future for i in items], shard, payload
                    )
                    self._batches += 1
                    self._request_queues[shard].put((op, request_id, payload))
        if error is not None:
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(error)
        for item in fallback_items:
            self._serve_fallback(item.kind, item.query, item.k, item.future)

    def _check_overload_locked(self) -> None:
        """Enter/leave overload mode from the queue-wait EWMA.

        Entering clamps every worker's Monte Carlo budget through the
        fire-and-forget ``configure`` op — wider intervals for unsafe
        queries instead of a growing queue; leaving (at half the
        threshold, for hysteresis) restores the configured budget.
        """
        threshold = self.overload_threshold
        if threshold is None:
            return
        level = self._wait_ewma.value
        if not self._overloaded and level > threshold:
            self._overloaded = True
            samples = (
                self.overload_samples
                if self.overload_samples is not None
                else max(500, self.config.mc_samples // 10)
            )
            self._broadcast_samples_locked(samples)
            self._metric_overload.set(1)
            self._metric_overload_transitions.labels("enter").inc()
        elif self._overloaded and level < threshold * 0.5:
            self._overloaded = False
            self._broadcast_samples_locked(self.config.mc_samples)
            self._metric_overload.set(0)
            self._metric_overload_transitions.labels("exit").inc()

    def _broadcast_samples_locked(self, samples: int) -> None:
        message = ("configure", None, {"mc_samples": samples})
        for shard, queue in enumerate(self._request_queues):
            if queue is not None and not self._degraded[shard]:
                queue.put(message)
        if self._fallback is not None:
            with self._fallback_lock:
                self._fallback.set_sample_budget(samples)

    def _ensure_synced_locked(self) -> None:
        """Repair replicas after out-of-band front-db mutation."""
        current = (self.db.structure_version, self.db.version)
        if current == self._synced_versions:
            return
        snapshot = self.db.snapshot()
        for queue in self._request_queues:
            if queue is not None:
                queue.put(("sync", None, snapshot))
        self._synced_versions = current
        self._syncs += 1
        # The sync IS a fresh base state: respawn replay starts over.
        self._log_snapshot = snapshot
        self._update_log.clear()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ServerPool is closed")

    # ------------------------------------------------------------------
    # Supervision: reap, respawn, rehydrate, degrade
    # ------------------------------------------------------------------

    def _supervise(self) -> None:
        """Supervisor thread: watch worker sentinels, respawn the dead.

        Replaces the old fail-fast watcher (which marked the whole pool
        broken on any worker death).  Process sentinels fire on any
        exit; exits during `close()` are the orderly case and are
        ignored.
        """
        from multiprocessing.connection import wait

        while True:
            with self._lock:
                if self._closed:
                    return
                sentinels = {
                    process.sentinel: shard
                    for shard, process in enumerate(self._processes)
                    if not self._degraded[shard]
                }
            if not sentinels:
                time.sleep(0.2)  # everything degraded: nothing to watch
                continue
            for sentinel in wait(list(sentinels), timeout=0.2):
                self._reap(sentinels[sentinel])

    def _reap(self, shard: int) -> None:
        """Handle one worker exit: sweep, then respawn or degrade."""
        respawned = None
        with self._lock:
            if self._closed or self._degraded[shard]:
                return
            process = self._processes[shard]
            if process.is_alive():
                return  # stale sentinel from an already-replaced process
            process.join(0.1)
            self._last_exit[shard] = process.exitcode
            now = time.monotonic()
            deaths = self._deaths[shard]
            deaths.append(now)
            while deaths and now - deaths[0] > self.respawn_window:
                deaths.popleft()
            crash_looping = len(deaths) > self.respawn_limit
            # Sweep everything in flight on this shard; replies will
            # never come (and anything still parked in the dead queue
            # is discarded with it).
            swept = [
                (request_id, entry)
                for request_id, entry in list(self._pending.items())
                if entry.shard == shard
            ]
            for request_id, _entry in swept:
                del self._pending[request_id]
            buffered = self._buffers[shard]
            self._buffers[shard] = []
            self._detach_reader_locked(shard)
            if crash_looping:
                self._degraded[shard] = True
                self._request_queues[shard].close()
                self._request_queues[shard] = None
                self._metric_degraded.set(sum(self._degraded))
            else:
                snapshot = self._log_snapshot
                self._respawns += 1
                self._metric_respawns.labels(str(shard)).inc()
        if not crash_looping:
            queue, process, reader = self._spawn_worker(shard, snapshot)
            with self._lock:
                if self._closed:
                    queue.close()
                    reader.close()
                    process.terminate()
                    return
                # Rehydrate: the ctor loaded the base snapshot; replay
                # the log as it stands *now*, so updates broadcast to
                # the dead queue while this worker spawned are not
                # lost.  A sync or log compaction meanwhile replaced
                # the base — ship the new one first.  Enqueued before
                # anything else can reach the new queue (we hold the
                # lock), so every re-dispatched request observes
                # current state.
                if self._log_snapshot is not snapshot:
                    queue.put(("sync", None, self._log_snapshot))
                for payload in self._update_log:
                    queue.put(("update", None, payload))
                self._request_queues[shard] = queue
                self._processes[shard] = process
                self._reply_readers[shard] = reader
                # Requests registered between the sweep and this
                # install went onto the dead worker's queue — sweep
                # them too so they are re-dispatched on the fresh one.
                window = [
                    (request_id, entry)
                    for request_id, entry in list(self._pending.items())
                    if entry.shard == shard
                ]
                for request_id, _entry in window:
                    del self._pending[request_id]
                swept = swept + window
                respawned = queue
        self._resolve_swept(shard, swept, buffered, respawned)

    def _resolve_swept(
        self, shard: int, swept, buffered: List[_PendingItem], queue
    ) -> None:
        """Give every orphaned request a second life (or an honest end).

        First-time casualties of a respawned shard are re-dispatched to
        the fresh worker; anything orphaned twice — or orphaned by a
        degraded shard — is served inline on the front (queries) or
        failed with :class:`WorkerDiedError` (stats and metrics probes,
        whose callers skip the shard).
        """
        redispatch_ops = ("evaluate_many", "answers_many", "stats", "metrics")
        inline_batches: List[Tuple[str, object, List[Future]]] = []
        orphans: List[Future] = []
        with self._lock:
            for _request_id, entry in swept:
                if entry.op == _STOP:
                    continue
                if (
                    queue is not None
                    and entry.op in redispatch_ops
                    and not entry.retried
                ):
                    entry.retried = True
                    request_id = next(self._ids)
                    self._pending[request_id] = entry
                    queue.put((entry.op, request_id, entry.payload))
                    continue
                if entry.op in ("evaluate_many", "answers_many"):
                    inline_batches.append(
                        (entry.op, entry.payload, entry.futures)
                    )
                    continue
                orphans.extend(entry.futures)
        if orphans:
            # Resolved outside the lock: future done-callbacks
            # (inflight gauge, shard load) re-acquire it.
            error = WorkerDiedError(
                f"worker {shard} died (exit {self._last_exit[shard]}) "
                f"with this request in flight"
            )
            for future in orphans:
                if not future.done():
                    future.set_exception(error)
        # Buffered (never-dispatched) items re-enter the normal path:
        # onto the fresh worker, or the fallback session if degraded.
        for op, payload, futures in inline_batches:
            self._serve_swept_inline(op, payload, futures)
        if queue is not None:
            if buffered:
                with self._lock:
                    self._buffers[shard] = buffered + self._buffers[shard]
                    drive = not self._driving[shard]
                    if drive:
                        self._driving[shard] = True
                if drive:
                    self._drive(shard)
        else:
            for item in buffered:
                self._serve_fallback(item.kind, item.query, item.k, item.future)

    def _serve_swept_inline(self, op, payload, futures: List[Future]) -> None:
        """Answer an orphaned worker batch from the fallback session."""
        session = self._fallback_session()
        try:
            with self._fallback_lock:
                result = _worker_execute(session, op, payload)
        except Exception as error:  # noqa: BLE001 - delivered via futures
            for future in futures:
                if not future.done():
                    future.set_exception(error)
            return
        for future, value in zip(futures, result):
            if not future.done():
                future.set_result(value)

    # ------------------------------------------------------------------
    # Result collection
    # ------------------------------------------------------------------

    def _collect(self) -> None:
        """Collector thread: route worker replies onto their futures.

        One reply pipe per worker: a worker killed mid-``send``
        truncates only its own channel (surfacing here as
        :class:`EOFError`), so the other shards' replies keep flowing —
        the property the old shared result queue could not give under
        SIGKILL chaos.

        This thread is the only one that closes reply readers: a reader
        closed by another thread while ``recv`` runs on it fails with an
        arbitrary exception and would kill the collector, leaving every
        later reply unrouted.
        """
        from multiprocessing.connection import wait

        while True:
            with self._lock:
                if self._collector_stop:
                    return
                detached, self._detached_readers = self._detached_readers, []
                readers = {
                    reader: shard
                    for shard, reader in enumerate(self._reply_readers)
                    if reader is not None
                }
            for reader in detached:
                reader.close()
            if not readers:
                time.sleep(0.05)
                continue
            for conn in wait(list(readers), timeout=0.2):
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # Dead worker (possibly a truncated reply).  The
                    # supervisor owns the respawn; just stop listening
                    # to this channel until it is replaced.
                    with self._lock:
                        shard = readers[conn]
                        if self._reply_readers[shard] is conn:
                            self._detach_reader_locked(shard)
                    continue
                self._route_reply(message)

    def _detach_reader_locked(self, shard: int) -> None:
        """Stop collecting from ``shard``'s reader; the collector closes it."""
        reader = self._reply_readers[shard]
        self._reply_readers[shard] = None
        if reader is not None:
            self._detached_readers.append(reader)

    def _route_reply(self, message) -> None:
        request_id, ok, payload = message
        with self._lock:
            entry = self._pending.pop(request_id, None)
        if entry is None:
            return  # purged on timeout, or swept by the supervisor
        if not ok:
            kind, text = payload
            if kind == "timeout":
                error: Exception = PoolTimeoutError(text)
                with self._lock:
                    self._timeouts += 1
                self._metric_timeouts.inc()
            elif kind == "invalid":
                error = ValueError(text)
            else:
                error = WorkerError(text)
            for future in entry.futures:
                if not future.done():
                    future.set_exception(error)
            return
        if entry.op in ("evaluate_many", "answers_many"):
            for future, value in zip(entry.futures, payload):
                if not future.done():
                    future.set_result(value)
        else:  # stats / metrics / stop: one future, raw payload
            for future in entry.futures:
                if not future.done():
                    future.set_result(payload)
