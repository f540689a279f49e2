"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``classify "R(x), S(x,y)"`` — run the dichotomy classifier, print the
  verdict with its witness.
* ``evaluate "R(x), S(x,y)" data.json`` — evaluate over a database
  given as JSON ``{"R": [[[1], 0.5], ...], ...}``; routes through the
  MystiQ-style router and reports the routing decision (including why
  safer engines were skipped).
* ``answers "Q(x) :- R(x), S(x,y)" data.json --top 5`` — rank the
  answer tuples of a non-Boolean query by probability, one routing
  decision per answer.

Every query argument accepts unions of conjunctive queries: Boolean
disjuncts separated by ``|`` (``"R(x) | S(x,y), T(y)"``), or several
datalog rules for one answer relation separated by ``;`` or newlines
(``"Q(x) :- R(x); Q(y) :- S(y,y)"``).  Safe unions — self-joins
included — evaluate exactly through the lifted tier; unsafe ones fall
through to the compiled / Monte Carlo tiers like any #P-hard query.
* ``compile "R(x), S(x,y), T(y)" data.json`` — compile the query's
  lineage into an OBDD or d-DNNF circuit and report circuit size, the
  variable ordering used, and the exact probability.
* ``serve data.json --requests workload.json`` — replay a workload of
  requests through one long-lived :class:`repro.serve.QuerySession`,
  exercising the prepared-query and circuit caches across calls.  The
  workload is a JSON list of request objects::

      [{"op": "evaluate", "query": "R(x), S(x,y), T(y)"},
       {"op": "answers", "query": "Q(x) :- R(x), S(x,y)", "top": 3},
       {"op": "update", "relation": "R", "row": [1], "probability": 0.9},
       {"op": "batch", "queries": ["R(x), S(x,y)", "R(x), S(x,y), T(y)"]}]

  ``update`` inserts or re-weights one tuple (probability-only changes
  refresh cached circuits without recompiling); the final line reports
  the session's cache statistics.  The workload may also be JSON Lines
  (one request object per line); a malformed file reports the
  offending request — with its line number in the JSON Lines case —
  and exits non-zero.  ``--trace FILE`` additionally records one span
  tree per request (prepare/ground/compile/sweep stages with timings)
  and writes the JSON trace to ``FILE``.
* ``serve data.json --listen 8080 --workers 4`` — the concurrent
  serving front instead of a replay: an asyncio JSON-over-HTTP server
  (:mod:`repro.serve.server`) over a :class:`repro.serve.ServerPool`
  sharding query shapes across worker processes.  ``POST /evaluate``,
  ``/answers``, ``/batch``, ``/update``; ``GET /stats``, ``/healthz``,
  ``/metrics`` (Prometheus text exposition merged across workers).
  ``--verbose`` prints an access-log line per request.  Ctrl-C drains
  in-flight requests and stops the workers gracefully.
* ``stats http://127.0.0.1:8080`` — fetch a running server's ``/stats``
  summary (``--json`` for the full counters, ``--metrics`` for the raw
  Prometheus exposition).
* ``zoo`` — print the paper's query table with our verdicts.

Databases load through :func:`repro.db.io.load_database`, which accepts
both the list format above and the ``from_dict``-style mapping format
``{"R": {"[1]": 0.5}}`` and reports malformed files with a validating
error instead of a traceback.  Files mentioning the same row twice are
rejected as probable data bugs; every database-loading subcommand takes
``--allow-duplicates`` to load them last-wins instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .analysis import classify
from .compile.ordering import STRATEGIES
from .core.parser import QueryParseError, parse
from .db.database import ProbabilisticDatabase
from .db.io import DatabaseFormatError, load_database
from .engines import RouterEngine
from .lineage.planner import GroundingError


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dalvi-Suciu dichotomy toolkit (PODS 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="PTIME or #P-hard?")
    p_classify.add_argument("query", help='e.g. "R(x), S(x,y)"')
    p_classify.add_argument(
        "--constants", default="",
        help="comma-separated identifiers to read as constants",
    )

    p_eval = sub.add_parser("evaluate", help="compute p(q) over a database")
    p_eval.add_argument("query")
    p_eval.add_argument(
        "database",
        help='JSON file: {"R": [[[1], 0.5], [[2], 0.3]], "S": ...}',
    )
    p_eval.add_argument("--constants", default="")
    p_eval.add_argument(
        "--samples", type=_positive_int, default=20000,
        help="Monte Carlo samples for unsafe queries",
    )
    p_eval.add_argument(
        "--exact", action="store_true",
        help="use the exact oracle instead of Monte Carlo for unsafe queries",
    )
    _add_duplicates_flag(p_eval)

    p_answers = sub.add_parser(
        "answers", help="ranked answer tuples of a non-Boolean query"
    )
    p_answers.add_argument("query", help='e.g. "Q(x) :- R(x), S(x,y)"')
    p_answers.add_argument(
        "database",
        help='JSON file: {"R": [[[1], 0.5], ...]} or {"R": {"[1]": 0.5}}',
    )
    p_answers.add_argument("--constants", default="")
    p_answers.add_argument(
        "--top", type=int, default=None, metavar="K",
        help="only the K most probable answers (multisimulation prunes "
             "Monte Carlo work for the rest)",
    )
    p_answers.add_argument(
        "--samples", type=_positive_int, default=20000,
        help="Monte Carlo sample cap per answer for unsafe residuals",
    )
    p_answers.add_argument(
        "--exact", action="store_true",
        help="use the exact oracle instead of Monte Carlo for unsafe residuals",
    )
    _add_duplicates_flag(p_answers)

    p_compile = sub.add_parser(
        "compile", help="compile the lineage into a circuit and evaluate"
    )
    p_compile.add_argument("query")
    p_compile.add_argument(
        "database",
        help='JSON file: {"R": [[[1], 0.5], [[2], 0.3]], "S": ...}',
    )
    p_compile.add_argument("--constants", default="")
    p_compile.add_argument(
        "--mode", choices=("obdd", "dnnf", "auto"), default="auto",
        help="compilation target (default: auto = OBDD, d-DNNF fallback)",
    )
    p_compile.add_argument(
        "--ordering", choices=STRATEGIES, default="auto",
        help="OBDD variable ordering (default: auto = hierarchy for a "
             "hierarchical query, else lineage)",
    )
    p_compile.add_argument(
        "--max-nodes", type=int, default=None,
        help="node budget; compilation aborts when exceeded",
    )
    p_compile.add_argument(
        "--show-circuit", action="store_true",
        help="also print the circuit nodes (small circuits only)",
    )
    p_compile.add_argument(
        "--compare-oracle", action="store_true",
        help="also run the Shannon-expansion WMC oracle for comparison "
             "(exponential worst case; only for lineages it can handle)",
    )
    _add_duplicates_flag(p_compile)

    p_serve = sub.add_parser(
        "serve", help="replay a request workload through a QuerySession"
    )
    p_serve.add_argument(
        "database",
        help='JSON file: {"R": [[[1], 0.5], ...]} or {"R": {"[1]": 0.5}}',
    )
    p_serve.add_argument(
        "--requests", metavar="FILE",
        help="replay a workload: JSON list of request objects, or JSON "
             "Lines with one object per line (see module docstring)",
    )
    p_serve.add_argument(
        "--listen", metavar="[HOST:]PORT",
        help="serve JSON-over-HTTP on this address instead of replaying "
             "a workload file",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes for --listen (0 = in-process, default 2); "
             "query shapes are hash-sharded across workers",
    )
    p_serve.add_argument("--constants", default="")
    p_serve.add_argument(
        "--samples", type=_positive_int, default=20000,
        help="Monte Carlo sample cap for unsafe residuals",
    )
    p_serve.add_argument(
        "--exact", action="store_true",
        help="use the exact oracle instead of Monte Carlo for unsafe queries",
    )
    p_serve.add_argument(
        "--compile-budget", type=int, default=10_000, metavar="NODES",
        help="circuit node budget for the compiled tier (default 10000)",
    )
    p_serve.add_argument(
        "--request-timeout", type=float, default=None, metavar="SECONDS",
        help="HTTP mode only: default per-request deadline; expired "
             "requests are purged and return 504 (clients override "
             "per-request via the X-Deadline-Ms header; default none)",
    )
    p_serve.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="HTTP mode only: times a timed-out request is re-dispatched "
             "with capped backoff before 504 (default 1)",
    )
    p_serve.add_argument(
        "--max-inflight", type=int, default=1024, metavar="N",
        help="HTTP mode only: global in-flight request cap; over-limit "
             "requests are shed fast with 503 + Retry-After (default "
             "1024; 0 sheds everything, for drills)",
    )
    p_serve.add_argument(
        "--max-queue-depth", type=int, default=None, metavar="N",
        help="HTTP mode only: per-shard admission bound in the pool; "
             "requests beyond it are shed with 503 instead of queued "
             "(default unbounded)",
    )
    p_serve.add_argument(
        "--idle-timeout", type=float, default=300.0, metavar="SECONDS",
        help="HTTP mode only: close keep-alive connections idle this "
             "long (default 300; <= 0 disables)",
    )
    p_serve.add_argument(
        "--overload-threshold", type=float, default=None, metavar="SECONDS",
        help="HTTP mode only: EWMA of the time requests wait on their "
             "worker's queue above which the pool clamps Monte Carlo "
             "sample budgets until load drains; a worker's start-up "
             "counts as wait, so it can switch on briefly after a "
             "start or respawn (default off)",
    )
    p_serve.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="HTTP mode only: arm deterministic worker fault injection, "
             "e.g. 'seed=7,kill=0.01,stall=0.02,stall_ms=500' — chaos "
             "drills against the supervision layer (see "
             "repro.serve.faults)",
    )
    p_serve.add_argument(
        "--trace", metavar="FILE",
        help="replay mode only: record a span tree per request "
             "(prepare/ground/compile/sweep stages) and write the JSON "
             "trace to FILE when the workload finishes",
    )
    p_serve.add_argument(
        "--verbose", action="store_true",
        help="HTTP mode only: print one access-log line per request "
             "(method, path, status, duration)",
    )
    _add_duplicates_flag(p_serve)

    p_stats = sub.add_parser(
        "stats", help="fetch /stats or /metrics from a running server"
    )
    p_stats.add_argument(
        "url", help="server base URL, e.g. http://127.0.0.1:8080"
    )
    p_stats.add_argument(
        "--metrics", action="store_true",
        help="print the raw Prometheus /metrics exposition instead of "
             "the /stats summary",
    )
    p_stats.add_argument(
        "--json", action="store_true",
        help="print the full /stats JSON instead of the summary line",
    )

    sub.add_parser("zoo", help="classify every query named in the paper")
    return parser


def _add_duplicates_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--allow-duplicates", action="store_true",
        help="load duplicate database rows last-wins instead of erroring",
    )


def _load_db(args) -> ProbabilisticDatabase:
    on_duplicate = "overwrite" if args.allow_duplicates else "error"
    return load_database(args.database, on_duplicate=on_duplicate)


def _constants(spec: str) -> tuple:
    return tuple(token.strip() for token in spec.split(",") if token.strip())


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        if args.command == "classify":
            result = classify(parse(args.query, constants=_constants(args.constants)))
            print(result.describe())
            return 0

        if args.command == "evaluate":
            query = parse(args.query, constants=_constants(args.constants))
            db = _load_db(args)
            router = RouterEngine(exact_fallback=args.exact, mc_samples=args.samples)
            probability = router.probability(query, db)
            decision = router.history[-1]
            print(f"p(q) = {probability:.10f}")
            print(f"engine: {decision.engine} ({decision.seconds * 1e3:.1f} ms)")
            if decision.fallback_reason:
                print(f"fallback: {decision.fallback_reason}")
            return 0

        if args.command == "answers":
            return _run_answers(args)

        if args.command == "compile":
            return _run_compile(args)

        if args.command == "serve":
            return _run_serve(args)

        if args.command == "stats":
            return _run_stats(args)
    except (DatabaseFormatError, QueryParseError, GroundingError,
            OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.command == "zoo":
        from .queries import zoo

        for entry in zoo():
            claimed = "PTIME" if entry.claimed_ptime else "#P-hard"
            try:
                verdict = entry.classify().verdict.value
            except Exception as error:  # pragma: no cover
                verdict = f"error({type(error).__name__})"
            flag = "" if (verdict == claimed) == (not entry.disputed) else "  [!]"
            print(f"{entry.name:34s} paper={claimed:8s} ours={verdict}{flag}")
        return 0

    return 1  # pragma: no cover


def _run_answers(args) -> int:
    query = parse(args.query, constants=_constants(args.constants))
    db = _load_db(args)
    router = RouterEngine(exact_fallback=args.exact, mc_samples=args.samples)
    results = router.answers(query, db, k=args.top)
    if not results:
        print("no answers")
        return 0
    decisions = {
        decision.answer: decision
        for decision in router.history
        if decision.answer is not None
    }
    width = max(len(_answer_text(answer)) for answer, _ in results)
    print(f"{'#':>3}  {'answer':<{width}}  {'probability':>12}  engine")
    for rank, (answer, probability) in enumerate(results, start=1):
        decision = decisions.get(answer)
        engine = decision.engine if decision else router.name
        extra = ""
        if decision and decision.interval is not None:
            extra = f" ±{decision.interval:.6f}"
        print(
            f"{rank:>3}  {_answer_text(answer):<{width}}  "
            f"{probability:>12.8f}  {engine}{extra}"
        )
    reasons = {
        decision.fallback_reason
        for decision in decisions.values()
        if decision.fallback_reason
    }
    for reason in sorted(reasons):
        print(f"fallback: {reason}")
    return 0


def _answer_text(answer: tuple) -> str:
    return "(" + ", ".join(repr(v) for v in answer) + ")"


def _run_serve(args) -> int:
    if (args.requests is None) == (args.listen is None):
        print(
            "error: serve needs exactly one of --requests FILE (replay a "
            "workload) or --listen [HOST:]PORT (start the HTTP server)",
            file=sys.stderr,
        )
        return 2
    if args.trace is not None and args.listen is not None:
        print(
            "error: --trace records a workload replay; for a live server "
            "scrape GET /metrics instead",
            file=sys.stderr,
        )
        return 2
    db = _load_db(args)
    if args.listen is not None:
        return _run_serve_http(args, db)

    from .obs import Tracer
    from .serve import QuerySession

    requests = _load_requests(args.requests)
    tracer = Tracer(enabled=True) if args.trace is not None else None
    session = QuerySession(
        db,
        exact_fallback=args.exact,
        mc_samples=args.samples,
        compile_budget=args.compile_budget,
        tracer=tracer,
    )
    constants = _constants(args.constants)
    for label, request in requests:
        try:
            _serve_request(session, request, constants)
        except (QueryParseError, DatabaseFormatError, ValueError,
                TypeError) as error:
            print(
                f"error: {args.requests}, {label}: {error}\n"
                f"  offending request: {json.dumps(request)}",
                file=sys.stderr,
            )
            return 2
    if tracer is not None:
        spans = tracer.export()
        with open(args.trace, "w") as handle:
            json.dump(spans, handle, indent=2)
            handle.write("\n")
        print(f"trace: {len(spans)} root spans -> {args.trace}")
    print(f"session: {session.stats.describe()}")
    return 0


def _run_stats(args) -> int:
    import urllib.request

    base = args.url.rstrip("/")
    if not base.startswith(("http://", "https://")):
        base = "http://" + base
    path = "/metrics" if args.metrics else "/stats"
    with urllib.request.urlopen(base + path, timeout=30) as reply:
        body = reply.read()
    if args.metrics:
        sys.stdout.write(body.decode("utf-8"))
        return 0
    payload = json.loads(body)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(payload.get("text") or json.dumps(payload))
    return 0


def _load_requests(path: str) -> List[tuple]:
    """Parse a workload file into ``(label, request)`` pairs.

    Accepts a JSON list of request objects, or JSON Lines (one object
    per line).  Malformed content raises :class:`DatabaseFormatError`
    naming the offending line, so the CLI exits non-zero instead of
    silently succeeding on a half-read file.
    """
    with open(path) as handle:
        text = handle.read()
    if not text.strip():
        raise DatabaseFormatError(f"{path}: empty request file")
    if text.lstrip()[0] == "[":
        try:
            requests = json.loads(text)
        except json.JSONDecodeError as error:
            raise DatabaseFormatError(
                f"{path}: not valid JSON: {error}"
            ) from error
        if not isinstance(requests, list):
            raise DatabaseFormatError(
                f"{path}: expected a JSON list of request objects, "
                f"got {type(requests).__name__}"
            )
        return [
            (f"request {number}", request)
            for number, request in enumerate(requests, start=1)
        ]
    pairs = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            request = json.loads(line)
        except json.JSONDecodeError as error:
            raise DatabaseFormatError(
                f"{path}, line {number}: not valid JSON: {error}\n"
                f"  offending line: {line.strip()}"
            ) from error
        pairs.append((f"line {number}", request))
    return pairs


def _run_serve_http(args, db) -> int:
    from .serve import ServerPool, SessionConfig, serve_forever

    host, _, port_text = args.listen.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        print(
            f"error: --listen expects [HOST:]PORT, got {args.listen!r}",
            file=sys.stderr,
        )
        return 2
    if args.workers < 0:
        print(f"error: --workers must be >= 0, got {args.workers}",
              file=sys.stderr)
        return 2
    pool = ServerPool(
        db,
        workers=args.workers,
        config=SessionConfig(
            exact_fallback=args.exact,
            mc_samples=args.samples,
            compile_budget=args.compile_budget,
            faults=args.faults,
        ),
        request_timeout=args.request_timeout,
        request_retries=args.retries,
        max_queue_depth=args.max_queue_depth,
        overload_threshold=args.overload_threshold,
    )
    access_log = None
    if args.verbose:
        def access_log(line: str) -> None:
            print(line, flush=True)

    idle_timeout = args.idle_timeout
    if idle_timeout is not None and idle_timeout <= 0:
        idle_timeout = None
    serve_forever(
        pool,
        host,
        port,
        access_log=access_log,
        max_inflight=args.max_inflight,
        idle_timeout=idle_timeout,
    )
    return 0


def _request_field(request: dict, name: str):
    if name not in request:
        raise ValueError(
            f"op {request['op']!r} is missing the {name!r} field"
        )
    return request[name]


def _request_query(request: dict) -> str:
    text = _request_field(request, "query")
    if not isinstance(text, str):
        raise ValueError(f"query must be a string, got {text!r}")
    return text


def _serve_request(session, request, constants) -> None:
    if not isinstance(request, dict) or "op" not in request:
        raise ValueError(f'expected an object with an "op" key, got {request!r}')
    op = request["op"]
    if op == "evaluate":
        text = _request_query(request)
        value = session.evaluate(parse(text, constants=constants))
        print(f"evaluate {text!r}: p = {value:.10f}")
    elif op == "answers":
        text = _request_query(request)
        query = parse(text, constants=constants)
        top = request.get("top")
        if top is not None and (
            isinstance(top, bool) or not isinstance(top, int) or top < 0
        ):
            raise ValueError(
                f"answers top must be a non-negative integer, got {top!r}"
            )
        ranked = session.answers(query, k=top)
        print(f"answers {text!r}: {len(ranked)} answers")
        for rank, (answer, value) in enumerate(ranked, start=1):
            print(f"  {rank:>3}  {_answer_text(answer)}  {value:.8f}")
    elif op == "update":
        row = _request_field(request, "row")
        if not isinstance(row, (list, tuple)) or not all(
            isinstance(value, (int, str, float)) for value in row
        ):
            raise ValueError(
                f"update row must be an array of scalars, got {row!r}"
            )
        relation = _request_field(request, "relation")
        probability = _request_field(request, "probability")
        if isinstance(probability, bool) or not isinstance(
            probability, (int, float)
        ):
            raise ValueError(
                f"update probability must be a number, got {probability!r}"
            )
        session.update(relation, tuple(row), probability)
        print(f"update {relation}{tuple(row)} <- {probability}")
    elif op == "batch":
        queries = _request_field(request, "queries")
        if not isinstance(queries, list) or not all(
            isinstance(text, str) for text in queries
        ):
            raise ValueError(
                f"batch queries must be an array of query strings, "
                f"got {queries!r}"
            )
        parsed = [parse(text, constants=constants) for text in queries]
        values = session.evaluate_many(parsed)
        print(f"batch of {len(values)}:")
        for text, value in zip(queries, values):
            print(f"  {text!r}: p = {value:.10f}")
    else:
        raise ValueError(
            f"unknown op {op!r}; expected evaluate/answers/update/batch"
        )


def _run_compile(args) -> int:
    import time

    from .compile.cache import CircuitCache
    from .compile.obdd import CompiledOBDD
    from .engines.compiled import CompiledEngine
    from .lineage.grounding import ground_lineage
    from .lineage.wmc import shannon_expansion_count

    from .core.query import ConjunctiveQuery

    query = parse(args.query, constants=_constants(args.constants))
    db = _load_db(args)
    lineage = ground_lineage(query, db)
    if not isinstance(query, ConjunctiveQuery):
        # Unions compile order-free from their DNF lineage; the query
        # argument only guides the CQ ordering heuristics.
        query = None
    print(f"lineage: {lineage.clause_count()} clauses over "
          f"{lineage.variable_count} tuple events")
    if lineage.certainly_true or lineage.is_false:
        print(f"p(q) = {1.0 if lineage.certainly_true else 0.0:.10f} (trivial)")
        return 0
    from .engines.base import UnsupportedQueryError

    engine = CompiledEngine(
        mode=args.mode, ordering=args.ordering, max_nodes=args.max_nodes,
        cache=CircuitCache(),
    )
    start = time.perf_counter()
    try:
        artifact = engine.compile_lineage(lineage, query)
    except (UnsupportedQueryError, ValueError) as error:
        print(f"compilation failed: {error}", file=sys.stderr)
        return 1
    compile_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    probability = float(artifact.probability(lineage.weights))
    evaluate_ms = (time.perf_counter() - start) * 1e3
    report = engine.last_report
    print(report.describe())
    print(f"compile: {compile_ms:.2f} ms, evaluate: {evaluate_ms:.3f} ms")
    if args.compare_oracle:
        print(f"WMC oracle would expand {shannon_expansion_count(lineage)} "
              f"nodes per query")
    print(f"p(q) = {min(max(probability, 0.0), 1.0):.10f}")
    if args.show_circuit:
        if isinstance(artifact, CompiledOBDD):
            circuit, root = artifact.obdd.to_circuit(artifact.root)
        else:
            circuit, root = artifact.circuit, artifact.root
        print(circuit.describe(root))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
