"""An asyncio JSON-over-HTTP front for a :class:`ServerPool`.

Zero dependencies beyond the standard library: a minimal HTTP/1.1
parser over :func:`asyncio.start_server`, JSON request and response
bodies, and the pool's blocking calls pushed onto the default executor
so the event loop keeps accepting while workers grind.  Each request
is one pool call: a ``/batch`` body's same-shard queries share one
worker message and circuit sweep, while concurrent requests travel in
their own messages.

Routes (all bodies JSON):

=======  ============  =======================================  ==========================================
method   path          request body                             response body
=======  ============  =======================================  ==========================================
POST     /evaluate     ``{"query": "R(x), S(x,y)"}``            ``{"probability": 0.2}``
POST     /answers      ``{"query": "Q(x) :- ...", "top": 3}``   ``{"answers": [{"answer": [...], "probability": p}, ...]}``
POST     /batch        ``{"queries": [...]}``                   ``{"probabilities": [...]}``
POST     /update       ``{"relation": "R", "row": [1],          ``{"ok": true}``
                       "probability": 0.9}``
GET      /stats        —                                        pool + per-worker session counters
                                                                (human summary under ``"text"``)
GET      /healthz      —                                        ``{"ok": ..., "workers": n, "shards":
                                                                [{"shard": i, "alive": ...}, ...]}``
GET      /metrics      —                                        Prometheus text exposition (server +
                                                                pool front + merged worker registries)
=======  ============  =======================================  ==========================================

Malformed requests get ``400`` with ``{"error": ...}``; unknown routes
``404``.  Shutdown is graceful: the listener closes first, in-flight
requests drain, then (optionally) the pool itself is closed.

The synchronous :class:`BackgroundServer` wrapper runs the whole thing
on a daemon thread for tests, examples and notebook use::

    >>> from repro.db.database import ProbabilisticDatabase
    >>> from repro.serve.pool import ServerPool
    >>> db = ProbabilisticDatabase.from_dict({"R": {(1,): 0.5}})
    >>> with BackgroundServer(ServerPool(db, workers=0)) as server:
    ...     import json, urllib.request
    ...     reply = urllib.request.urlopen(urllib.request.Request(
    ...         f"http://127.0.0.1:{server.port}/evaluate",
    ...         data=json.dumps({"query": "R(x)"}).encode(),
    ...         method="POST"))
    ...     json.load(reply)["probability"]
    0.5
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import threading
import time
from typing import Callable, Optional, Tuple, Union

from ..core.parser import QueryParseError
from ..obs.metrics import render_prometheus
from .pool import PoolOverloadError, PoolTimeoutError, ServerPool

__all__ = ["BackgroundServer", "RequestServer", "serve_forever"]

#: Refuse request bodies above this size (a plain-text DoS guard).
MAX_BODY_BYTES = 1 << 20

#: Known routes — the ``path`` label of the HTTP metrics.  Anything
#: else is folded into ``"other"`` so arbitrary request paths cannot
#: mint unbounded label cardinality.
_ROUTES = frozenset({
    "/evaluate", "/answers", "/batch", "/update",
    "/stats", "/healthz", "/metrics",
})

#: Routes exempt from the global in-flight cap: operators must be able
#: to see *into* an overloaded server, and sheds themselves must never
#: block the probes that diagnose them.
_UNSHEDDABLE = frozenset({"/healthz", "/stats", "/metrics"})

#: Deadline request header, milliseconds of budget granted by the
#: client.  Forwarded to the pool as a per-request timeout; expiry
#: returns 504 instead of keeping the client waiting past its budget.
DEADLINE_HEADER = "x-deadline-ms"


class _Raw:
    """A non-JSON response body (e.g. Prometheus text exposition)."""

    __slots__ = ("body", "content_type")

    def __init__(self, body: bytes, content_type: str) -> None:
        self.body = body
        self.content_type = content_type


class _BadRequest(Exception):
    """Client error — reported as HTTP 400 with the message as JSON."""


class _NotFound(Exception):
    """No such route — reported as HTTP 404.

    A dedicated type rather than ``LookupError``: a ``KeyError``
    escaping pool evaluation must surface as a 500, not be mistaken
    for an unknown route.
    """


class RequestServer:
    """The asyncio server component; one instance per listening socket.

    Args:
        pool: the :class:`ServerPool` serving the traffic (any
            ``workers`` setting, including inline ``0``).
        host: interface to bind.
        port: TCP port; ``0`` picks an ephemeral one (read it back
            from :attr:`port` after :meth:`start`).
        access_log: optional callable receiving one line per completed
            request (``METHOD path status duration-ms``); the CLI wires
            this to stdout under ``repro serve --listen ... --verbose``.
        max_inflight: global admission cap — requests arriving while
            this many are already being handled are shed immediately
            with ``503`` + ``Retry-After`` (never queued, sub-
            millisecond), keeping the event loop and executor
            responsive under overload.  ``/healthz``, ``/stats`` and
            ``/metrics`` are exempt so operators can observe an
            overloaded server.  ``None`` disables the cap.
        idle_timeout: seconds a keep-alive connection may sit idle
            between requests before the server closes it, so camping
            clients cannot hold connection slots forever.  ``None``
            waits indefinitely (the pre-existing behaviour).

    HTTP metrics (request counts by route and status, in-flight gauge,
    end-to-end latency histograms) land in ``pool.metrics``, so a
    ``GET /metrics`` scrape sees the server, the pool front and every
    worker in one exposition.

    Use :meth:`start` / :meth:`aclose` from an event loop, or the
    synchronous :class:`BackgroundServer` wrapper.
    """

    def __init__(
        self,
        pool: ServerPool,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        access_log: Optional[Callable[[str], None]] = None,
        max_inflight: Optional[int] = None,
        idle_timeout: Optional[float] = None,
    ) -> None:
        if max_inflight is not None and max_inflight < 0:
            raise ValueError(
                f"max_inflight must be >= 0, got {max_inflight}"
            )
        self.pool = pool
        self.host = host
        self.port = port
        self.access_log = access_log
        self.max_inflight = max_inflight
        self.idle_timeout = idle_timeout
        self._server: Optional[asyncio.AbstractServer] = None
        self._handlers: set = set()
        self._writers: dict = {}
        self._busy: set = set()
        self._closing = False
        #: Cheap admission counter (single event loop thread, no lock);
        #: the gauge below is the observable mirror of it.
        self._inflight = 0
        self._metric_requests = pool.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, by method, route and status",
            ("method", "path", "status"),
        )
        self._metric_inflight = pool.metrics.gauge(
            "repro_http_inflight_requests",
            "HTTP requests currently being handled",
        )
        self._metric_seconds = pool.metrics.histogram(
            "repro_http_request_seconds",
            "End-to-end HTTP request latency, by route",
            ("path",),
        )
        self._metric_shed = pool.metrics.counter(
            "repro_http_shed_total",
            "HTTP requests shed with 503, by reason",
            ("reason",),
        )
        self._metric_idle_closed = pool.metrics.counter(
            "repro_http_idle_closed_total",
            "Keep-alive connections closed by the idle timeout",
        )

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Serve until ``stop`` is set, then drain and close."""
        await stop.wait()
        await self.aclose()

    async def aclose(self) -> None:
        """Stop accepting; drain busy handlers, wake idle keep-alives.

        A handler parked in ``read`` between keep-alive requests would
        otherwise block shutdown until its client disconnected, so
        idle connections get their transports closed (the pending read
        fails, the handler exits); handlers mid-request finish writing
        their response first and then see :attr:`_closing`.
        """
        if self._server is None:
            return
        self._closing = True
        self._server.close()
        await self._server.wait_closed()
        for task, writer in list(self._writers.items()):
            if task not in self._busy:
                writer.close()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        self._server = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        self._writers[task] = writer
        try:
            while not self._closing:
                request = await self._read_request(reader)
                if request is None:
                    break
                self._busy.add(task)
                try:
                    method, path, headers, body = request
                    start = time.perf_counter()
                    self._inflight += 1
                    self._metric_inflight.inc()
                    try:
                        status, payload, extra = await self._respond(
                            method, path, headers, body
                        )
                    finally:
                        self._inflight -= 1
                        self._metric_inflight.dec()
                    elapsed = time.perf_counter() - start
                    route = path if path in _ROUTES else "other"
                    self._metric_requests.labels(
                        method, route, str(status)
                    ).inc()
                    self._metric_seconds.labels(route).observe(elapsed)
                    if self.access_log is not None:
                        self.access_log(
                            f"{method} {path} {status} "
                            f"{elapsed * 1000.0:.2f}ms"
                        )
                    keep_alive = (
                        headers.get("connection", "keep-alive").lower()
                        != "close"
                    )
                    await self._write_response(
                        writer, status, payload, keep_alive, extra
                    )
                finally:
                    self._busy.discard(task)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._handlers.discard(task)
            self._writers.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - client vanished
                pass

    async def _read_request(
        self, reader
    ) -> Optional[Tuple[str, str, dict, bytes]]:
        try:
            # The idle timeout bounds only the wait for the *next*
            # request head — a camping keep-alive client.  Body bytes
            # (below) follow the head immediately, so they stay on the
            # plain read path.
            if self.idle_timeout is not None:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), self.idle_timeout
                )
            else:
                head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.TimeoutError:
            self._metric_idle_closed.inc()
            return None
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            return None
        method, path, _version = parts
        headers = {}
        for line in header_lines:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", 0) or 0)
        except ValueError:
            return None  # unparseable framing: close, don't traceback
        if length < 0 or length > MAX_BODY_BYTES:
            return None
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _respond(
        self, method: str, path: str, headers: dict, body: bytes
    ) -> Tuple[int, Union[dict, _Raw], Optional[dict]]:
        if (
            self.max_inflight is not None
            and path not in _UNSHEDDABLE
            and self._inflight > self.max_inflight
        ):
            # Shed before any parsing or executor hop: the whole point
            # is that refusing work stays cheap when accepting it
            # would not be.  (_inflight already counts this request.)
            self._metric_shed.labels("max_inflight").inc()
            return (
                503,
                {"error": "server is at its in-flight request limit; "
                          "retry later"},
                {"Retry-After": "1"},
            )
        try:
            timeout = self._deadline(headers)
            return 200, await self._dispatch(method, path, body, timeout), None
        except _BadRequest as error:
            return 400, {"error": str(error)}, None
        except _NotFound:
            return 404, {"error": f"no route {method} {path}"}, None
        except PoolTimeoutError as error:
            return 504, {"error": f"deadline exceeded: {error}"}, None
        except PoolOverloadError as error:
            self._metric_shed.labels("pool_queue").inc()
            return 503, {"error": str(error)}, {"Retry-After": "1"}
        except (QueryParseError, ValueError, TypeError) as error:
            return 400, {"error": str(error)}, None
        except Exception as error:  # noqa: BLE001 - 500, keep serving
            return 500, {"error": f"{type(error).__name__}: {error}"}, None

    @staticmethod
    def _deadline(headers: dict) -> Optional[float]:
        """Per-request timeout (seconds) from the deadline header."""
        raw = headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            millis = float(raw)
        except ValueError:
            raise _BadRequest(
                f"{DEADLINE_HEADER} must be a number of milliseconds, "
                f"got {raw!r}"
            ) from None
        if millis <= 0:
            raise _BadRequest(
                f"{DEADLINE_HEADER} must be positive, got {raw!r}"
            )
        return millis / 1000.0

    async def _dispatch(
        self, method: str, path: str, body: bytes,
        timeout: Optional[float] = None,
    ) -> dict:
        pool = self.pool
        loop = asyncio.get_running_loop()
        if method == "GET":
            if path == "/healthz":
                return await loop.run_in_executor(None, pool.health)
            if path == "/stats":
                stats = await loop.run_in_executor(None, pool.stats)
                payload = dataclasses.asdict(stats)
                payload["combined"] = dataclasses.asdict(stats.combined)
                # "text" is the canonical human-readable key;
                # "describe" survives as an alias for older callers.
                payload["text"] = payload["describe"] = stats.describe()
                return payload
            if path == "/metrics":
                snapshot = await loop.run_in_executor(
                    None, pool.metrics_snapshot
                )
                return _Raw(
                    render_prometheus(snapshot).encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            raise _NotFound(path)
        if method != "POST":
            raise _NotFound(path)
        request = self._json_body(body)
        if path == "/evaluate":
            query = self._field(request, "query", str)
            value = await loop.run_in_executor(
                None, functools.partial(pool.evaluate, query, timeout=timeout)
            )
            return {"probability": value}
        if path == "/answers":
            query = self._field(request, "query", str)
            top = request.get("top")
            if top is not None and (
                isinstance(top, bool) or not isinstance(top, int)
                or top < 0
            ):
                raise _BadRequest(
                    f"top must be a non-negative integer, got {top!r}"
                )
            ranked = await loop.run_in_executor(
                None,
                functools.partial(pool.answers, query, top, timeout=timeout),
            )
            return {
                "answers": [
                    {"answer": list(answer), "probability": probability}
                    for answer, probability in ranked
                ]
            }
        if path == "/batch":
            queries = self._field(request, "queries", list)
            if not all(isinstance(text, str) for text in queries):
                raise _BadRequest("queries must be an array of strings")
            values = await loop.run_in_executor(
                None,
                functools.partial(
                    pool.evaluate_many, queries, timeout=timeout
                ),
            )
            return {"probabilities": values}
        if path == "/update":
            relation = self._field(request, "relation", str)
            row = self._field(request, "row", list)
            probability = request.get("probability")
            if isinstance(probability, bool) or not isinstance(
                probability, (int, float)
            ):
                raise _BadRequest(
                    f"probability must be a number, got {probability!r}"
                )
            await loop.run_in_executor(
                None, pool.update, relation, tuple(row), probability
            )
            return {"ok": True}
        raise _NotFound(path)

    @staticmethod
    def _json_body(body: bytes) -> dict:
        try:
            request = json.loads(body.decode("utf-8") or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise _BadRequest(f"request body is not valid JSON: {error}")
        if not isinstance(request, dict):
            raise _BadRequest(
                f"request body must be a JSON object, "
                f"got {type(request).__name__}"
            )
        return request

    @staticmethod
    def _field(request: dict, name: str, kind: type):
        value = request.get(name)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise _BadRequest(
                f"field {name!r} must be a {kind.__name__}, got {value!r}"
            )
        return value

    async def _write_response(
        self,
        writer,
        status: int,
        payload: Union[dict, _Raw],
        keep_alive: bool,
        extra_headers: Optional[dict] = None,
    ) -> None:
        text = {200: "OK", 400: "Bad Request", 404: "Not Found",
                500: "Internal Server Error",
                503: "Service Unavailable",
                504: "Gateway Timeout"}.get(status, "OK")
        if isinstance(payload, _Raw):
            body = payload.body
            content_type = payload.content_type
        else:
            body = (json.dumps(payload) + "\n").encode("utf-8")
            content_type = "application/json"
        connection = "keep-alive" if keep_alive else "close"
        extras = "".join(
            f"{name}: {value}\r\n"
            for name, value in (extra_headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {text}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extras}"
            f"Connection: {connection}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


def _announce(message: str) -> None:
    # Flush so the address line reaches pipes (tests, process managers)
    # immediately, not at exit.
    print(message, flush=True)


def serve_forever(
    pool: ServerPool,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    announce=_announce,
    access_log: Optional[Callable[[str], None]] = None,
    max_inflight: Optional[int] = None,
    idle_timeout: Optional[float] = None,
) -> None:
    """Run the HTTP server until SIGINT/SIGTERM; used by the CLI.

    Blocks the calling thread inside an event loop.  On signal, stops
    accepting, drains in-flight requests, then closes ``pool``
    gracefully (workers finish their queues before exiting).
    ``access_log`` (one line per completed request) enables the
    CLI's ``--verbose`` mode.
    """

    async def _run() -> None:
        import signal

        server = RequestServer(
            pool, host, port, access_log=access_log,
            max_inflight=max_inflight, idle_timeout=idle_timeout,
        )
        await server.start()
        announce(f"serving on http://{server.host}:{server.port} "
                 f"({pool.workers} workers; Ctrl-C to stop)")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await server.serve_until(stop)

    try:
        asyncio.run(_run())
    finally:
        pool.close()
        announce("server stopped")


class BackgroundServer:
    """Run a :class:`RequestServer` on a daemon thread.

    The synchronous face of the server for tests, examples and
    interactive use: construction returns once the socket is bound
    (read the ephemeral port from :attr:`port`), and :meth:`stop` —
    or leaving the ``with`` block — drains handlers, stops the loop
    and closes the pool.
    """

    def __init__(
        self,
        pool: ServerPool,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        access_log: Optional[Callable[[str], None]] = None,
        max_inflight: Optional[int] = None,
        idle_timeout: Optional[float] = None,
    ) -> None:
        self.pool = pool
        self.server = RequestServer(
            pool, host, port, access_log=access_log,
            max_inflight=max_inflight, idle_timeout=idle_timeout,
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-http-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):  # pragma: no cover - hang guard
            raise RuntimeError("HTTP server failed to start within 30s")
        if self._error is not None:
            raise self._error

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def _run(self) -> None:
        async def _main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await self.server.start()
            except OSError as error:
                self._error = error
                return
            finally:
                self._ready.set()
            await self.server.serve_until(self._stop)

        asyncio.run(_main())

    def stop(self) -> None:
        """Graceful shutdown: drain handlers, stop the loop, close the pool."""
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)
        self._loop = None
        self.pool.close()

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
