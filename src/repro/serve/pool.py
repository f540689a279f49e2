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

* **Dispatch at admission.**  The lock hold that admits a call also
  queues it: each shard gets at most one ``evaluate_many`` and one
  ``answers_many`` message per call, so one call's same-shard items
  share a single vectorized circuit sweep inside the worker.
  Concurrent callers' items do not share messages.

* **Replicas.**  Each worker holds a replica of the database: a
  snapshot of the front database plus every message on its queue
  after that snapshot.  :meth:`ServerPool.update` applies the change
  to the front copy (so a bad update raises there), then broadcasts
  the delta to every worker queue; per-queue FIFO order guarantees any
  request submitted after ``update`` returns observes it.  Direct
  mutations of the front database (not through the pool) are detected
  by version drift and repaired with a full snapshot broadcast before
  the next dispatch.

* **Supervision and respawn.**  Every worker exit (crash, OOM kill,
  injected fault) wakes a supervisor that reaps the shard.  In the
  same lock hold that sweeps the dead shard it snapshots the front
  database and installs the replacement's queue, so every later
  update, sync and re-dispatched request lands behind that snapshot;
  the process itself starts outside the lock.  The shard's in-flight
  requests are re-dispatched to the fresh process — callers see
  latency, not errors.  A crash-looping shard (too many deaths inside
  :attr:`respawn_window` seconds) degrades to the front session
  instead of poisoning the pool.  Replies travel over per-worker
  pipes, so a worker killed mid-reply corrupts only its own channel —
  never a shared result queue.

* **Deadlines, retry and admission.**  Each request carries an
  optional deadline; expiry purges the in-flight entry (no slot leak,
  no late reply on an abandoned future) and retries once with capped
  backoff on the respawned or inline path.  A bounded per-shard queue
  depth sheds over-limit requests fast (:class:`PoolOverloadError` —
  never queued), and an overload mode degrades gracefully by clamping
  Monte Carlo sample budgets.  Overload is an EWMA of queue wait: the
  time from queueing a message to its worker taking it off the queue,
  stamped by the worker and carried back on the reply.  A message
  queued before its worker is up also waits out the worker's start-up
  (about 0.5–1 s for a spawned worker), so with a threshold set,
  overload mode can switch on briefly after a start or a respawn.

Monte Carlo work needs no pool machinery of its own: an unsafe query
is sampled inside the worker that owns its shape, like every other
request.

``workers=0`` serves everything on the front session — the one
lock-guarded session in this process that also serves degraded shards
— same API, no subprocesses, which keeps doctests, small deployments
and fork-less platforms simple::

    >>> from repro.db.database import ProbabilisticDatabase
    >>> db = ProbabilisticDatabase.from_dict(
    ...     {"R": {(1,): 0.5}, "S": {(1, 2): 0.4}})
    >>> with ServerPool(db, workers=0) as pool:
    ...     round(pool.evaluate("R(x), S(x,y)"), 6)
    0.2
"""

from __future__ import annotations

import itertools
import multiprocessing
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
    so every shard gets private caches and its own sampler.
    """

    exact_fallback: bool = False
    mc_samples: int = 20_000
    mc_seed: Optional[int] = None
    compile_budget: Optional[int] = 10_000
    max_prepared: int = 256
    #: When False, every worker gets a disabled (null) registry —
    #: the knob ``benchmarks/bench_obs.py`` uses to price telemetry.
    metrics_enabled: bool = True
    #: Fault-injection spec for the chaos harness
    #: (:mod:`repro.serve.faults`), e.g. ``"seed=7,kill=0.01"``.
    #: ``None`` (production) leaves the worker loop fault-free; the
    #: ``REPRO_FAULTS`` environment variable arms it process-wide.
    faults: Optional[str] = None

    def __post_init__(self) -> None:
        # Checked here, in the caller, rather than in a spawned worker.
        if self.mc_samples < 1:
            raise ValueError(
                f"mc_samples must be >= 1, got {self.mc_samples}"
            )

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
    #: Worker messages sent, plus reads served on the front session.
    batches: int = 0
    #: Requests that shared a worker message with another item of
    #: their call.
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
    #: Shards degraded to the front session after crash-looping.
    degraded: List[int] = field(default_factory=list)
    #: The front session serving degraded shards, if built (with
    #: ``workers=0`` it is the one entry of ``workers`` instead).
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
# replies are (request_id, ok, payload, taken) sent back on that
# worker's own reply pipe (one per worker: a worker killed mid-send
# truncates only its own channel, which the supervisor discards on
# respawn).  ``taken`` is the worker's time.time() when it took the
# message off its queue — the front's queue wait ends there.  "update",
# "sync" and "configure" are fire-and-forget (the front validated them
# already); everything else is answered at most once — the reply is
# deliberately suppressed under the "drop" fault.  A failure reply
# carries a _Failure, so deadline expiry inside the worker surfaces as
# PoolTimeoutError and a client error as ValueError, not WorkerError.
# A batch reply carries one value per item, or an item's own _Failure.

_STOP = "stop"

#: Every worker starts by ``spawn``: a respawn starts from a process
#: whose collector and supervisor threads are running, and only
#: ``spawn`` is safe there (a fork copies locks those threads hold).
_SPAWN = multiprocessing.get_context("spawn")

#: Ops whose payload is ``(items, deadline)`` — one call's same-shard
#: items; the worker answers the whole batch with a timeout, unrun,
#: once the call's deadline has passed.
_BATCH_OPS = frozenset({"evaluate_many", "answers_many"})


def _worker_main(config, snapshot, request_queue, reply, worker_index) -> None:
    """Entry point of one worker process."""
    db = ProbabilisticDatabase.from_snapshot(snapshot)
    session = config.build_session(db)
    injector = build_injector(config.faults, worker_index)
    while True:
        op, request_id, payload = request_queue.get()
        taken = time.time()
        fault = injector.before(op) if injector is not None else None
        if op == _STOP:
            reply.send((request_id, True, None, taken))
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
        deadline = payload[1] if op in _BATCH_OPS else None
        if deadline is not None and time.time() > deadline:
            # The batch expired while queued — don't burn compute on
            # answers nobody is waiting for.
            ok, result = False, _Failure(
                "timeout", "deadline expired in worker queue"
            )
        else:
            try:
                ok, result = True, _worker_execute(session, op, payload)
            except Exception as error:  # noqa: BLE001 - forwarded to the front
                ok, result = False, _Failure.of(error)
        if fault != "drop":
            reply.send((request_id, ok, result, taken))


@dataclass(frozen=True)
class _Failure:
    """A worker op's failure: the whole reply, or one batch item's."""

    kind: str  # "error" | "invalid" | "timeout"
    text: str

    @classmethod
    def of(cls, error: Exception) -> "_Failure":
        """The failure for an exception raised by a worker op.

        A :class:`ValueError` is the client's fault (bad query, wrong
        arity), so it travels as ``"invalid"`` with its bare message and
        the front re-raises a ``ValueError`` — the same 400 an inline
        pool gives.
        """
        if isinstance(error, ValueError):
            return cls("invalid", str(error))
        return cls("error", f"{type(error).__name__}: {error}")

    def exception(self) -> Exception:
        if self.kind == "timeout":
            return PoolTimeoutError(self.text)
        if self.kind == "invalid":
            return ValueError(self.text)
        return WorkerError(self.text)


def _resolve_items(futures: List[Future], values: list) -> None:
    """Resolve each future with its own value or its own failure."""
    for future, value in zip(futures, values):
        if future.done():
            continue
        if isinstance(value, _Failure):
            future.set_exception(value.exception())
        else:
            future.set_result(value)


def _worker_execute(session: QuerySession, op: str, payload):
    """Run one worker op on ``session``.

    A batch of several items runs as one call, so same-shape items
    share one sweep.  If that call raises, each item runs on its own
    and a failed item answers with its own :class:`_Failure`.
    """
    if op in _BATCH_OPS:
        items = payload[0]
        if len(items) > 1:
            try:
                return _run_batch(session, op, items)
            except Exception:  # noqa: BLE001 - isolated per item below
                pass
        return [_run_item(session, op, item) for item in items]
    if op == "stats":
        return session.stats
    if op == "metrics":
        return session.metrics.snapshot()
    raise ValueError(f"unknown worker op {op!r}")


def _run_batch(session: QuerySession, op: str, items) -> list:
    if op == "evaluate_many":
        return session.evaluate_many(items)
    rankings = session.answers_many([query for query, _k in items])
    return [
        ranking if k is None else ranking[:k]
        for (_query, k), ranking in zip(items, rankings)
    ]


def _run_item(session: QuerySession, op: str, item):
    try:
        return _run_batch(session, op, [item])[0]
    except Exception as error:  # noqa: BLE001 - this item's own failure
        return _Failure.of(error)


#: One in-flight worker message: futures awaiting the reply, the shard
#: that owns it, the payload (for supervisor re-dispatch after a worker
#: death), whether it has already been retried once, and the
#: ``time.time()`` it was queued at (where its queue wait starts).
@dataclass
class _Inflight:
    op: str
    futures: List[Future]
    shard: int
    payload: object = None
    retried: bool = False
    queued: float = 0.0


class ServerPool:
    """Shard :class:`QuerySession` serving across worker processes.

    Args:
        db: the authoritative database.  Mutate it through
            :meth:`update` to get incremental broadcast; direct
            mutation is tolerated but costs a full re-sync.
        workers: number of worker processes; ``0`` serves everything
            on the front session (one lock-guarded session in this
            process, no subprocesses).
        config: per-worker :class:`SessionConfig`; defaults match
            :class:`QuerySession` defaults.
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
            is crash-looping: it degrades to the front session instead
            of respawning again.
        overload_threshold: seconds of queue wait — from queueing a
            request's message to its worker taking it off the queue,
            as an EWMA over requests — above which the pool enters
            overload mode and clamps every worker's Monte Carlo sample
            budget (``overload_samples``, default a tenth of the
            configured budget); admission checks it, and recovery is
            at half the threshold.  Start-up counts as wait, so the
            mode can switch on briefly after a start or a respawn.
            None disables overload degradation.

    Thread-safe: any number of threads may call :meth:`evaluate`,
    :meth:`answers`, :meth:`update` etc. concurrently.  One call's
    same-shard items share one worker message and sweep; concurrent
    callers' items do not.  Use as a context manager (or call
    :meth:`close`) for graceful shutdown.
    """

    def __init__(
        self,
        db: ProbabilisticDatabase,
        *,
        workers: int = 4,
        config: Optional[SessionConfig] = None,
        request_timeout: Optional[float] = None,
        request_retries: int = 1,
        retry_backoff: float = 0.05,
        max_queue_depth: Optional[int] = None,
        respawn_limit: int = 3,
        respawn_window: float = 30.0,
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
        if overload_samples is not None and overload_samples < 1:
            raise ValueError(
                f"overload_samples must be >= 1, got {overload_samples}"
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
            "Time a request's message waited on its worker's queue, "
            "from queueing to the worker taking it off",
        )
        self._metric_batch_size = self.metrics.histogram(
            "repro_pool_batch_size",
            "Items per worker message (one call's same-shard items)",
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
        #: The front session: one session over ``self.db`` serving
        #: every request when ``workers == 0``, and degraded shards and
        #: twice-orphaned batches otherwise (built on first use).  Its
        #: version-snapshot invalidation sees every change to
        #: ``self.db``, which the pool makes only under ``_front_lock``.
        #: Lock order: ``_lock`` before ``_front_lock``.
        self._front: Optional[QuerySession] = None
        self._front_lock = threading.RLock()
        #: One queue per shard; None once the shard is degraded.
        self._request_queues: List[Optional[object]] = []
        self._degraded = [False] * workers
        self._synced_versions = (db.structure_version, db.version)
        if workers == 0:
            self._front = self.config.build_session(db, metrics=self.metrics)
            return
        snapshot = db.snapshot()
        self._request_queues = [_SPAWN.Queue() for _ in range(workers)]
        self._reply_readers: List[Optional[object]] = []
        #: Readers of dead workers, waiting for the collector to close them.
        self._detached_readers: List[object] = []
        self._processes = []
        for shard, queue in enumerate(self._request_queues):
            process, reader = self._spawn_worker(shard, snapshot, queue)
            self._processes.append(process)
            self._reply_readers.append(reader)
        #: request id -> in-flight record for dispatched messages.
        self._pending: Dict[int, _Inflight] = {}
        self._ids = itertools.count()
        #: Unresolved items per shard — the admission counter behind
        #: ``max_queue_depth``.
        self._shard_load = [0] * workers
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

    def _spawn_worker(self, shard: int, snapshot, queue) -> tuple:
        """Start one worker on ``queue``; returns (process, reader)."""
        reader, writer = _SPAWN.Pipe(duplex=False)
        process = _SPAWN.Process(
            target=_worker_main,
            args=(self.config, snapshot, queue, writer, shard),
            daemon=True,
        )
        process.start()
        # Close the front's copy of the write end: once the worker
        # dies, the pipe EOFs and the collector can tell a truncated
        # reply from a pending one.
        writer.close()
        return process, reader

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

        Each shard receives at most one ``evaluate_many`` message for
        it — same-shard queries share a worker sweep instead of paying
        one round trip each.
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
        """Ranked answers for a batch of queries (one message per shard,
        like :meth:`evaluate_many`)."""
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
        """Drop a timed-out future's in-flight entry and count it.

        The future is resolved *outside* the lock: its done-callbacks
        (inflight gauge, shard-load admission counter) re-acquire it.
        """
        with self._lock:
            for request_id, entry in list(self._pending.items()):
                if future in entry.futures:
                    if all(f.done() or f is future for f in entry.futures):
                        # Last caller gone: the reply (if it ever
                        # comes) has nobody to serve — drop the slot.
                        del self._pending[request_id]
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

        The change lands on the front copy first, so a bad update
        raises here and never reaches (or diverges) the replicas.
        After this returns, every subsequently submitted request
        observes the change (per-worker queues are FIFO), and a worker
        respawned later has it in its snapshot.
        """
        row = tuple(row)
        with self._lock:
            self._check_open()
            self._ensure_synced_locked()
            with self._front_lock:
                self.db.add(relation, row, probability)
            message = ("update", None, (relation, row, probability))
            for queue in self._request_queues:
                if queue is not None:
                    queue.put(message)
            self._synced_versions = (
                self.db.structure_version, self.db.version
            )
            self._updates += 1

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
                degraded=[
                    shard for shard, degraded in enumerate(self._degraded)
                    if degraded
                ],
            )
        if not self.workers:
            front.workers = [self._front.stats]
            return front
        if self._front is not None:
            front.front_session = self._front.stats
        front.workers = [
            stats if stats is not None else SessionStats()
            for stats in self._probe("stats")
        ]
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
        if self.workers:
            snapshots += [
                snapshot for snapshot in self._probe("metrics")
                if snapshot is not None
            ]
        return merge_snapshots(*snapshots)

    def _probe(self, op: str) -> list:
        """Ask every shard for its ``"stats"`` or ``"metrics"``.

        One reply per shard, None where it is degraded, died or timed
        out: a probe must not fail because a worker did.
        """
        with self._lock:
            self._check_open()
            futures = self._send_to_shards_locked(op)
        replies = []
        for future in futures:
            try:
                replies.append(
                    None if future is None
                    else self._result(future, self.request_timeout)
                )
            except (WorkerDiedError, PoolTimeoutError):
                replies.append(None)
        return replies

    def _send_to_shards_locked(self, op: str) -> List[Optional[Future]]:
        """Send ``op`` to every shard; one future each (None if degraded)."""
        futures: List[Optional[Future]] = []
        for shard, queue in enumerate(self._request_queues):
            if queue is None:
                futures.append(None)
                continue
            future = Future()
            self._put_locked(_Inflight(op, [future], shard))
            futures.append(future)
        return futures

    def _put_locked(self, entry: _Inflight) -> None:
        """Queue ``entry`` on its shard's worker as a new request id."""
        request_id = next(self._ids)
        entry.queued = time.time()
        self._pending[request_id] = entry
        self._request_queues[entry.shard].put(
            (entry.op, request_id, entry.payload)
        )

    def health(self) -> dict:
        """Liveness report: overall ``ok`` plus per-shard worker status.

        A shard is healthy when its worker is alive *or* it has been
        degraded to (still-correct) inline serving; ``ok`` is the
        conjunction, with ``degraded`` listed separately so a scraper
        can tell "healthy", "degraded but serving" and "closed" apart.
        """
        if not self.workers:
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
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not self.workers:
                return
            futures = self._send_to_shards_locked(_STOP)
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
    # Admission and dispatch
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
        """Admit a whole call and queue it in the same lock hold.

        Each shard gets at most one ``evaluate_many`` and one
        ``answers_many`` message per call, so the call's same-shard
        items ride one worker message (and one circuit sweep) instead
        of one round trip each.  Items whose shard is over
        ``max_queue_depth`` are shed immediately; items with no live
        shard (every item when ``workers == 0``, or one whose shard is
        degraded) are served on the front session.
        """
        parsed = [
            (kind, self._parse(query), k) for kind, query, k in items
        ]
        deadline = time.time() + timeout if timeout is not None else None
        futures: List[Future] = []
        front: List[Tuple[str, AnyQuery, Optional[int], Future]] = []
        messages: Dict[Tuple[int, str], _Inflight] = {}
        with self._lock:
            self._check_open()
            self._ensure_synced_locked()
            self._check_overload_locked()
            for kind, query, k in parsed:
                future = Future()
                futures.append(future)
                shard = None
                if self.workers:
                    shape = canonical_string(
                        query.boolean() if kind == "evaluate" else query
                    )
                    shard = shard_of(shape, self.workers)
                    if self._degraded[shard]:
                        shard = None
                if (
                    shard is not None
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
                if shard is None:
                    future.add_done_callback(self._request_done)
                    front.append((kind, query, k, future))
                    continue
                self._shard_load[shard] += 1
                future.add_done_callback(
                    lambda f, shard=shard: self._request_done(f, shard)
                )
                op = f"{kind}_many"
                entry = messages.setdefault(
                    (shard, op), _Inflight(op, [], shard, ([], deadline))
                )
                entry.futures.append(future)
                entry.payload[0].append(
                    query if kind == "evaluate" else (query, k)
                )
            for entry in messages.values():
                size = len(entry.futures)
                self._batches += 1
                if size > 1:
                    self._coalesced += size
                self._metric_batch_size.observe(size)
                self._put_locked(entry)
        for kind, query, k, future in front:
            self._serve_front(kind, query, k, future)
        return futures

    def _front_session(self) -> QuerySession:
        """The front session, built on first use."""
        with self._front_lock:
            if self._front is None:
                self._front = self.config.build_session(
                    self.db, metrics=self.metrics
                )
                # _front is set before _overloaded is read, so an
                # overload transition racing this build is seen here or
                # sees the new session itself.
                if self._overloaded:
                    self._front.set_sample_budget(self._clamped_samples())
            return self._front

    def _serve_front(
        self, kind: str, query: AnyQuery, k: Optional[int],
        future: Future,
    ) -> None:
        """Answer one request on the front session."""
        with self._lock:
            self._batches += 1
        self._metric_batch_size.observe(1)
        try:
            with self._front_lock:
                session = self._front_session()
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

    def _request_done(
        self, _future: Future, shard: Optional[int] = None
    ) -> None:
        self._metric_inflight.dec()
        if shard is not None:
            with self._lock:
                self._shard_load[shard] -= 1

    def _check_overload_locked(self) -> None:
        """Enter/leave overload mode from the queue-wait EWMA.

        The collector feeds the EWMA; admission checks it here, before
        it queues the call.  Entering clamps every worker's Monte Carlo
        budget through the
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
            self._broadcast_samples_locked(self._clamped_samples())
            self._metric_overload.set(1)
            self._metric_overload_transitions.labels("enter").inc()
        elif self._overloaded and level < threshold * 0.5:
            self._overloaded = False
            self._broadcast_samples_locked(self.config.mc_samples)
            self._metric_overload.set(0)
            self._metric_overload_transitions.labels("exit").inc()

    def _clamped_samples(self) -> int:
        """The Monte Carlo budget every replica runs at in overload mode."""
        if self.overload_samples is not None:
            return self.overload_samples
        return max(500, self.config.mc_samples // 10)

    def _broadcast_samples_locked(self, samples: int) -> None:
        message = ("configure", None, {"mc_samples": samples})
        for queue in self._request_queues:
            if queue is not None:
                queue.put(message)
        if self._front is not None:
            with self._front_lock:
                self._front.set_sample_budget(samples)

    def _ensure_synced_locked(self) -> None:
        """Repair replicas after out-of-band front-db mutation.

        Only a broadcast marks replicas synced: a worker respawned since
        the mutation has it in its snapshot, but its peers do not.
        """
        current = (self.db.structure_version, self.db.version)
        if not self.workers or current == self._synced_versions:
            return
        snapshot = self.db.snapshot()
        for queue in self._request_queues:
            if queue is not None:
                queue.put(("sync", None, snapshot))
        self._synced_versions = current
        self._syncs += 1

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ServerPool is closed")

    # ------------------------------------------------------------------
    # Supervision: reap, respawn, degrade
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
        """Handle one worker exit: sweep, then respawn or degrade.

        The replacement's snapshot is taken and its queue installed in
        the lock hold that sweeps the dead shard, so everything sent
        from then on lands behind the snapshot, even while the process
        is still starting (outside the lock).
        """
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
            # Sweep everything in flight on this shard; replies will
            # never come (and anything still parked in the dead queue
            # is discarded with it).
            swept = [
                self._pending.pop(request_id)
                for request_id, entry in list(self._pending.items())
                if entry.shard == shard
            ]
            self._detach_reader_locked(shard)
            self._request_queues[shard].close()
            queue = None
            if len(deaths) > self.respawn_limit:
                self._degraded[shard] = True
                self._metric_degraded.set(sum(self._degraded))
            else:
                snapshot = self.db.snapshot()
                queue = _SPAWN.Queue()
                if self._overloaded:
                    # The clamp is a queued message, not part of the
                    # snapshot: replay it first.
                    queue.put((
                        "configure", None,
                        {"mc_samples": self._clamped_samples()},
                    ))
                self._respawns += 1
                self._metric_respawns.labels(str(shard)).inc()
            self._request_queues[shard] = queue
        if queue is not None:
            process, reader = self._spawn_worker(shard, snapshot, queue)
            with self._lock:
                if self._closed:
                    process.terminate()
                    queue.close()
                    reader.close()
                    return
                self._processes[shard] = process
                self._reply_readers[shard] = reader
        self._resolve_swept(shard, swept, respawned=queue is not None)

    def _resolve_swept(
        self, shard: int, swept: List[_Inflight], respawned: bool
    ) -> None:
        """Give every orphaned request a second life (or an honest end).

        First-time casualties of a respawned shard are re-dispatched to
        the fresh worker; anything orphaned twice — or orphaned by a
        degraded shard — is served on the front session (queries) or
        failed with :class:`WorkerDiedError` (stats and metrics probes,
        whose callers skip the shard).
        """
        redispatch_ops = _BATCH_OPS | {"stats", "metrics"}
        front_batches: List[_Inflight] = []
        orphans: List[Future] = []
        with self._lock:
            for entry in swept:
                if entry.op == _STOP:
                    continue
                if (
                    respawned
                    and entry.op in redispatch_ops
                    and not entry.retried
                ):
                    entry.retried = True
                    self._put_locked(entry)
                    continue
                if entry.op in _BATCH_OPS:
                    front_batches.append(entry)
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
        for entry in front_batches:
            self._serve_swept_inline(entry.op, entry.payload, entry.futures)

    def _serve_swept_inline(self, op, payload, futures: List[Future]) -> None:
        """Answer an orphaned worker batch on the front session."""
        with self._front_lock:
            values = _worker_execute(self._front_session(), op, payload)
        _resolve_items(futures, values)

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
        request_id, ok, payload, taken = message
        with self._lock:
            entry = self._pending.pop(request_id, None)
            if entry is None:
                return  # purged on timeout, or swept by the supervisor
            # One queue wait per request a batch carries; probes are
            # not requests.
            requests = len(entry.futures) if entry.op in _BATCH_OPS else 0
            wait = max(0.0, taken - entry.queued)
            for _ in range(requests):
                self._wait_ewma.observe(wait)
            if not ok and payload.kind == "timeout":
                self._timeouts += 1
                self._metric_timeouts.inc()
        for _ in range(requests):
            self._metric_queue_wait.observe(wait)
        if not ok:
            payload = [payload] * len(entry.futures)
        elif entry.op not in _BATCH_OPS:
            payload = [payload]  # stats / metrics / stop: one future
        _resolve_items(entry.futures, payload)
