"""The serving subsystem: sessions, the sharded pool, the HTTP front.

Three layers, each built on the previous (full tour in
``docs/ARCHITECTURE.md``):

* :class:`QuerySession` — one long-lived session over one mutable
  database: prepared queries, precise invalidation, batched circuit
  sweeps (:mod:`repro.serve.session`);
* :class:`ServerPool` — sessions sharded across worker processes by
  canonical query shape, with a front that queues each call as it
  admits it (one message per shard per call) and database version
  broadcast (:mod:`repro.serve.pool`);
* :class:`RequestServer` / :func:`serve_forever` — the asyncio
  JSON-over-HTTP server the CLI exposes as ``repro serve --listen``
  (:mod:`repro.serve.server`).

Quickstart (in-process session)::

    >>> from repro.db.database import ProbabilisticDatabase
    >>> from repro.serve import QuerySession
    >>> db = ProbabilisticDatabase.from_dict(
    ...     {"R": {(1,): 0.5}, "S": {(1, 2): 0.4}})
    >>> session = QuerySession(db)
    >>> round(session.evaluate("R(x), S(x,y)"), 6)   # cold: classify + plan
    0.2
    >>> session.update("R", (1,), 0.9)               # probability-only change
    >>> round(session.evaluate("R(x), S(x,y)"), 6)   # re-weighted, not re-planned
    0.36
"""

from .faults import FaultInjector, FaultPlan
from .pool import (
    PoolOverloadError,
    PoolStats,
    PoolTimeoutError,
    ServerPool,
    SessionConfig,
    WorkerDiedError,
    WorkerError,
    shard_of,
)
from .server import BackgroundServer, RequestServer, serve_forever
from .session import PreparedQuery, QuerySession, SessionStats

__all__ = [
    "BackgroundServer",
    "FaultInjector",
    "FaultPlan",
    "PoolOverloadError",
    "PoolStats",
    "PoolTimeoutError",
    "PreparedQuery",
    "QuerySession",
    "RequestServer",
    "ServerPool",
    "SessionConfig",
    "SessionStats",
    "WorkerDiedError",
    "WorkerError",
    "serve_forever",
    "shard_of",
]
