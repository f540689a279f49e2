"""Spans recorded from outside the program.

A :class:`Recorder` keeps every span in memory (name, layer, start,
end, parent, request id) and nests them through a per-thread stack.
:func:`layer_patches` and :func:`pool_patches` build span wrappers for
each layer's public entry points; :func:`patched` installs them by
setting attributes and undoes that on exit, so nothing under ``src/``
changes.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from stats import SpanRecord


class Recorder:
    """In-memory span store shared by every thread of the benchmark."""

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        #: Extra per-layer counts gathered by the wrappers.
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: Optional[int]) -> None:
        self._local.request = request

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[SpanRecord]:
        stack = self._stack()
        record = SpanRecord(
            name, layer, time.perf_counter(), 0.0,
            stack[-1] if stack else None,
            getattr(self._local, "request", None),
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def export(self) -> List[dict]:
        return [
            {"name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
             "parent": s.parent, "request": s.request}
            for s in self.spans
        ]


def _wrap(recorder: Recorder, layer: str, name: str, function: Callable,
          after: Optional[Callable] = None) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with recorder.span(name, layer):
            result = function(*args, **kwargs)
        if after is not None:
            after(recorder, args, result)
        return result

    return wrapper


def _count_clauses(recorder: Recorder, _args, lineage) -> None:
    recorder.count("grounding.clauses", len(lineage.clauses))


def _count_answer_clauses(recorder: Recorder, _args, lineages) -> None:
    recorder.count(
        "grounding.clauses",
        sum(len(lineage.clauses) for lineage in lineages.values()),
    )


def _count_rows(recorder: Recorder, args, _result) -> None:
    recorder.count("sweep.rows", len(args[2]))


@contextlib.contextmanager
def patched(patches: List[Tuple[object, str, Callable]]) -> Iterator[None]:
    """Set ``owner.attribute = value`` for each patch, restore on exit."""
    saved = [(owner, attribute, owner.__dict__[attribute])
             for owner, attribute, _ in patches]
    try:
        for owner, attribute, value in patches:
            setattr(owner, attribute, value)
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def _compile_wrapper(recorder: Recorder, function: Callable) -> Callable:
    from repro.engines.base import UnsupportedQueryError

    @functools.wraps(function)
    def wrapper(self, *args, **kwargs):
        with recorder.span("compile_lineage", "compile"):
            try:
                artifact = function(self, *args, **kwargs)
            except UnsupportedQueryError:
                recorder.count("compile.over_budget")
                raise
        recorder.count("compile.attempts")
        if self.last_report is not None and self.last_report.cached:
            recorder.count("compile.cache_hits")
        return artifact

    return wrapper


def _plan_wrapper(recorder: Recorder, function: Callable) -> Callable:
    @functools.wraps(function)
    def wrapper(self, *args, **kwargs):
        hits = self.cache_hits
        with recorder.span("plan_clause", "planner"):
            plan = function(self, *args, **kwargs)
        recorder.count("planner.plans")
        if self.cache_hits > hits:
            recorder.count("planner.cache_hits")
        return plan

    return wrapper


def layer_patches(recorder: Recorder) -> List[Tuple[object, str, Callable]]:
    """Span wrappers around every layer's public entry points."""
    from repro.db.database import ProbabilisticDatabase
    from repro.engines.compiled import CompiledEngine
    from repro.engines.lifted import LiftedEngine
    from repro.engines.montecarlo import MonteCarloEngine
    from repro.engines.router import RouterEngine
    from repro.engines.safe_plan import SafePlanEngine
    from repro.lineage.planner import GroundingPlanner
    from repro.serve import pool as pool_module
    from repro.serve import session as session_module
    from repro.serve.session import QuerySession

    def method(owner, attribute, layer, after=None):
        original = owner.__dict__[attribute]
        return (owner, attribute,
                _wrap(recorder, layer, attribute, original, after))

    return [
        method(QuerySession, "evaluate_many", "session"),
        method(QuerySession, "answers_many", "session"),
        method(QuerySession, "prepare", "session"),
        method(QuerySession, "update", "session"),
        method(RouterEngine, "plan_query", "router"),
        method(session_module, "parse", "router"),
        method(pool_module, "parse", "router"),
        method(SafePlanEngine, "probability", "safe_plan"),
        method(SafePlanEngine, "answers", "safe_plan"),
        method(LiftedEngine, "probability", "lifted"),
        method(LiftedEngine, "answers", "lifted"),
        (GroundingPlanner, "plan_clause", _plan_wrapper(
            recorder, GroundingPlanner.__dict__["plan_clause"])),
        method(session_module, "ground_lineage", "grounding", _count_clauses),
        method(session_module, "ground_answer_lineages", "grounding",
               _count_answer_clauses),
        (CompiledEngine, "compile_lineage", _compile_wrapper(
            recorder, CompiledEngine.__dict__["compile_lineage"])),
        method(session_module, "canonicalize_lineage", "compile"),
        method(session_module, "reweighted_probabilities", "compile",
               _count_rows),
        method(MonteCarloEngine, "estimate_lineage", "mc"),
        method(MonteCarloEngine, "answers_from_lineages", "mc"),
        method(ProbabilisticDatabase, "add", "db"),
    ]


def pool_patches(recorder: Recorder, pool) -> List[Tuple[object, str, Callable]]:
    """Span wrappers around one pool's public request calls.

    Patched on the instance, so the HTTP front (which looks the bound
    methods up per request) goes through them.
    """
    patches = []
    for attribute in ("evaluate", "answers", "update"):
        original = getattr(pool, attribute)
        pool.__dict__.setdefault(attribute, original)
        patches.append((pool, attribute,
                        _wrap(recorder, "pool", attribute, original)))
    return patches
