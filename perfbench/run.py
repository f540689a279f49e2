#!/usr/bin/env python3
"""End-to-end serving benchmark with per-layer attribution.

Drives the real serving stack: HTTP front (``RequestServer``) ->
``ServerPool(workers=2)`` -> worker ``QuerySession`` -> router tier ->
grounding / circuit / sampler, configured like ``repro serve``.  Load
is a closed loop of two client connections in this process: each
client sends its next request only after the reply to the previous
one arrived.

Usage, from the repository root::

    python3 perfbench/run.py --workload warm_drift --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays the
same workload twice more (see :func:`traced_run`) and prints the
per-layer metrics.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a
fuller record with provenance is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import gc
import http.client
import importlib.util
import json
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from multiprocessing import resource_tracker
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402

from repro.db.database import ProbabilisticDatabase  # noqa: E402
from repro.serve.pool import ServerPool, SessionConfig  # noqa: E402
from repro.serve.server import BackgroundServer  # noqa: E402

import oracle  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import CLIENTS, GENERATORS, WORKERS, Request, Workload  # noqa: E402

KINDS = ("evaluate", "answers", "update")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: A run keeps going past ``--seconds`` (up to this factor) until every
#: operation kind has enough samples for its p95.
MAX_STRETCH = 2.5
#: ``repro serve`` defaults: HTTP front and pool arguments.
SERVER_ARGS = {"max_inflight": 1024, "idle_timeout": 300.0}
POOL_ARGS = {"workers": WORKERS, "request_timeout": None,
             "request_retries": 1, "max_queue_depth": None,
             "overload_threshold": None, "scatter_policy": "adaptive"}


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------


class Clock:
    """Shared stop rule: ``seconds`` elapsed and every kind has enough
    samples for a supported p95, or the stretch limit is reached."""

    def __init__(self, seconds: float, limits: Optional[List[int]] = None):
        self.seconds = seconds
        self.limits = limits
        self.need = stats.min_samples(0.95)
        self.counts = dict.fromkeys(KINDS, 0)
        self._lock = threading.Lock()
        self.start = time.perf_counter()

    def record(self, kind: str) -> None:
        with self._lock:
            self.counts[kind] += 1

    def done(self, client: int, sent: int) -> bool:
        if self.limits is not None:
            return sent >= self.limits[client]
        elapsed = time.perf_counter() - self.start
        if elapsed >= self.seconds * MAX_STRETCH:
            return True
        return elapsed >= self.seconds and min(self.counts.values()) >= self.need


class HttpTransport:
    """One keep-alive connection to the HTTP front."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def send(self, kind: str, body: dict):
        payload = json.dumps(body).encode("utf-8")
        try:
            self.connection.request("POST", f"/{kind}", payload,
                                    {"Content-Type": "application/json"})
            response = self.connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            self.connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=120)
            return None, None
        reply = json.loads(data) if response.status == 200 else None
        return response.status, reply

    def close(self) -> None:
        self.connection.close()


class PoolTransport:
    """Calls the pool directly (inline passes; no HTTP front)."""

    def __init__(self, pool: ServerPool) -> None:
        self.pool = pool

    def send(self, kind: str, body: dict):
        if kind == "evaluate":
            return 200, {"probability": self.pool.evaluate(body["query"])}
        if kind == "answers":
            ranked = self.pool.answers(body["query"], body.get("top"))
            return 200, {"answers": [
                {"answer": list(answer), "probability": p}
                for answer, p in ranked]}
        self.pool.update(body["relation"], tuple(body["row"]),
                         body["probability"])
        return 200, {"ok": True}

    def close(self) -> None:
        pass


@dataclasses.dataclass
class ClientLog:
    outcomes: List[stats.Outcome] = dataclasses.field(default_factory=list)
    replies: List[Optional[dict]] = dataclasses.field(default_factory=list)
    #: perf_counter at which the last reply arrived.
    finished: float = 0.0


def drive(transports, streams: List[List[Request]], clock: Clock,
          recorder: Optional[tracing.Recorder] = None) -> List[ClientLog]:
    """Run one closed-loop client thread per stream until the clock stops."""
    logs = [ClientLog() for _ in streams]

    def client(index: int) -> None:
        transport, log = transports[index], logs[index]
        for sent, (kind, body) in enumerate(streams[index]):
            if clock.done(index, sent):
                break
            start = time.perf_counter()
            if recorder is None:
                status, reply = transport.send(kind, body)
            else:
                recorder.set_request(index * 10**7 + sent)
                with recorder.span(kind, "client"):
                    status, reply = transport.send(kind, body)
            end = time.perf_counter()
            log.outcomes.append(stats.Outcome(kind, end - start, status, end))
            log.replies.append(reply)
            clock.record(kind)
        log.finished = time.perf_counter()

    threads = [threading.Thread(target=client, args=(index,), daemon=True)
               for index in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return logs


def warm(transports, workload: Workload) -> None:
    """Send each client's warm-up reads once; every one must succeed."""
    logs = drive(transports, workload.warmup,
                 Clock(0.0, [len(reads) for reads in workload.warmup]))
    for log in logs:
        for outcome in log.outcomes:
            if outcome.status != 200:
                raise RuntimeError(f"warm-up {outcome.kind} failed: "
                                   f"status {outcome.status}")


# ----------------------------------------------------------------------
# Serving stack
# ----------------------------------------------------------------------


class Stack:
    """Pool + HTTP front + client connections, set up and warmed."""

    def __init__(self, workload: Workload) -> None:
        db = ProbabilisticDatabase.from_dict(workload.spec)
        start = time.perf_counter()
        self.pool = ServerPool(db, config=SessionConfig(), **POOL_ARGS)
        self.server = BackgroundServer(self.pool, **SERVER_ARGS)
        self.transports = [HttpTransport(self.server.port)
                           for _ in range(CLIENTS)]
        try:
            warm(self.transports, workload)
        except BaseException:
            self.close()
            raise
        self.setup_seconds = time.perf_counter() - start

    def worker_rss_mb(self) -> float:
        """Peak resident set summed over the worker processes."""
        total_kb = 0
        for shard in self.pool.health()["shards"]:
            with open(f"/proc/{shard['pid']}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def close(self) -> None:
        for transport in self.transports:
            transport.close()
        self.server.stop()


def inline_pool(workload: Workload) -> ServerPool:
    """``ServerPool(workers=0)`` over a fresh database, warmed."""
    pool = ServerPool(ProbabilisticDatabase.from_dict(workload.spec),
                      config=SessionConfig(),
                      **dict(POOL_ARGS, workers=0))
    warm([PoolTransport(pool) for _ in range(CLIENTS)], workload)
    return pool


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------


def expected_results(workload: Workload, counts: List[int]) -> List[list]:
    """Oracle replay of each client's executed prefix, one process each."""
    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(CLIENTS, mp_context=context) as executor:
        futures = [
            executor.submit(oracle.replay,
                            oracle.client_spec(workload.spec, client), client,
                            workload.streams[client][:counts[client]],
                            workload.monte_carlo)
            for client in range(CLIENTS)
        ]
        return [future.result() for future in futures]


@dataclasses.dataclass
class Verdict:
    exact_mismatches: int = 0
    mc_mismatches: int = 0
    mc_errors: List[float] = dataclasses.field(default_factory=list)


def verify(workload: Workload, logs: List[ClientLog], expected: List[list],
           mark: bool = True) -> Verdict:
    """Compare every successful read with the oracle."""
    verdict = Verdict()
    tolerance = (oracle.MC_TOLERANCE if workload.monte_carlo
                 else oracle.EXACT_TOLERANCE)
    for client, log in enumerate(logs):
        for index, (outcome, reply) in enumerate(zip(log.outcomes, log.replies)):
            kind, body = workload.streams[client][index]
            if kind == "update" or reply is None:
                continue
            got = reply["probability"] if kind == "evaluate" else reply["answers"]
            ok, errors = oracle.check(kind, got, expected[client][index],
                                      body.get("top"), tolerance)
            if mark:
                outcome.correct = ok
            if workload.monte_carlo:
                verdict.mc_errors.extend(errors)
                verdict.mc_mismatches += not ok
            else:
                verdict.exact_mismatches += not ok
    return verdict


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(logs: List[ClientLog], start: float, setup: List[float],
               rss_mb: float) -> Dict[str, dict]:
    outcomes = [outcome for log in logs for outcome in log.outcomes]
    elapsed = max(log.finished for log in logs) - start
    ok = [o for o in outcomes if not stats.is_failed(o)]
    metrics = {"throughput_rps": (len(ok) / elapsed, "1/s")}
    for kind in KINDS:
        latencies = [o.seconds * 1e3 for o in ok if o.kind == kind]
        for q, label in ((0.5, "p50"), (0.95, "p95")):
            if not stats.supported(len(latencies), q):
                print(f"warning: {len(latencies)} {kind} samples leave fewer "
                      f"than {stats.MIN_BEYOND} beyond {label}", file=sys.stderr)
            metrics[f"{kind}_{label}_ms"] = (
                stats.percentile(latencies, q) if latencies else 0.0, "ms")
    metrics["setup_s"] = (statistics.median(setup), "s")
    metrics["worker_rss_mb"] = (rss_mb, "MB")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def _family(snapshot: dict, name: str) -> dict:
    return snapshot.get(name, {"values": {}, "buckets": None})


def counter_total(snapshot: dict, name: str, label: Optional[str] = None) -> float:
    values = _family(snapshot, name)["values"]
    return sum(value for key, value in values.items()
               if label is None or label in key)


def histogram_parts(snapshot: dict, name: str, labels=None):
    """Summed ``(buckets, counts, sum, count)`` of a histogram family."""
    family = _family(snapshot, name)
    counts, total, count = None, 0.0, 0
    for key, value in family["values"].items():
        if labels is not None and not set(key) & set(labels):
            continue
        counts = (list(value["counts"]) if counts is None
                  else [a + b for a, b in zip(counts, value["counts"])])
        total += value["sum"]
        count += value["count"]
    return family["buckets"], counts or [], total, count


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def snapshot_delta(after: dict, before: dict) -> dict:
    """What a metrics snapshot gained since ``before`` (set-up excluded)."""
    delta = {}
    for name, family in after.items():
        old = before.get(name, {"values": {}})["values"]
        values = {}
        for key, value in family["values"].items():
            previous = old.get(key)
            if isinstance(value, dict):
                previous = previous or {"counts": [0] * len(value["counts"]),
                                        "sum": 0.0, "count": 0}
                values[key] = {
                    "counts": [a - b for a, b in zip(value["counts"],
                                                     previous["counts"])],
                    "sum": value["sum"] - previous["sum"],
                    "count": value["count"] - previous["count"],
                }
            else:
                values[key] = value - (previous or 0)
        delta[name] = dict(family, values=values)
    return delta


def stats_delta(after, before):
    """Field-wise ``after - before`` of two ``PoolStats``."""
    def minus(new, old, kind):
        return kind(**{spec.name: getattr(new, spec.name) - getattr(old, spec.name)
                       for spec in dataclasses.fields(kind)
                       if isinstance(getattr(new, spec.name), int)})

    front ={spec.name: getattr(after, spec.name) - getattr(before, spec.name)
             for spec in dataclasses.fields(after)
             if isinstance(getattr(after, spec.name), int)}
    workers = [minus(new, old, type(new))
               for new, old in zip(after.workers, before.workers)]
    return dataclasses.replace(after, workers=workers, **front)


LAYERS = ("server", "pool", "session", "router", "safe_plan", "lifted",
          "planner", "grounding", "compile", "mc", "db")
#: Layers every workload calls (requests, parsing, updates).
ALWAYS_ACTIVE = ("server", "pool", "session", "router", "db")

#: Layer groups each workload must be dominated by (purpose guards).
PURPOSE = {
    "warm_drift": ("server", "pool"),
    "safe_scale": ("safe_plan", "lifted"),
    "ground_churn": ("planner", "grounding", "compile"),
    "unsafe_mc": ("mc",),
}


def link_pool_spans(spans: List[stats.SpanRecord]) -> None:
    """Parent each front pool span (an executor thread) to the client
    request span that contains it; the HTTP front carries no request id
    across the executor hop, so containment decides."""
    clients = sorted((s.start, s.end, i) for i, s in enumerate(spans)
                     if s.layer == "client")
    taken = set()
    for span in spans:
        if span.layer != "pool" or span.parent is not None:
            continue
        for start, end, index in clients:
            if start > span.start:
                break
            if end >= span.end and index not in taken:
                taken.add(index)
                span.parent = index
                span.request = spans[index].request
                break


def per_layer(worker: dict, inline: dict, overhead: float,
              mc_errors: List[float]) -> Tuple[Dict[str, dict], Dict[str, float]]:
    """Per-layer metrics from the worker-config and inline passes, and
    each layer's absolute self time."""
    snap, pool_stats = worker["snapshot"], worker["stats"]
    totals_w = stats.layer_totals(worker["spans"])
    totals_i = stats.layer_totals(inline["spans"])
    # Worker-side session time: the part of each pool call spent inside
    # a worker (per-query evaluation, prepare and batched sweeps).
    busy = (histogram_parts(snap, "repro_session_query_seconds")[2]
            + histogram_parts(snap, "repro_session_stage_seconds",
                              ("prepare", "sweep"))[2])
    layers = {
        "server": totals_w.get("client", {"calls": 0, "self_s": 0.0}),
        "pool": dict(totals_w.get("pool", {"calls": 0, "self_s": 0.0})),
    }
    layers["pool"]["self_s"] = max(0.0, layers["pool"]["self_s"] - busy)
    for layer in LAYERS[2:]:
        layers[layer] = totals_i.get(layer, {"calls": 0, "self_s": 0.0})
    outcomes = [o for log in worker["logs"] for o in log.outcomes]
    # Self time per request, so layers measured in different passes
    # share one basis; the shares also feed the purpose guards.
    requests_w = max(1, len(outcomes))
    requests_i = max(1, inline["requests"])
    per_request = {
        layer: entry["self_s"] / (requests_w if layer in ("server", "pool")
                                  else requests_i)
        for layer, entry in layers.items()
    }
    total = sum(per_request.values()) or 1.0
    shares = {layer: value / total for layer, value in per_request.items()}

    metrics: Dict[str, tuple] = {}
    for layer, entry in layers.items():
        metrics[f"{layer}.calls"] = (entry["calls"], "count")
        metrics[f"{layer}.self_share"] = (shares[layer], "ratio")
        # Absolute self time only for layers every workload exercises: a
        # layer a workload never calls would report the same 0 s on every
        # run.  All absolute self times are in the results record.
        if layer in ALWAYS_ACTIVE:
            metrics[f"{layer}.self_s"] = (entry["self_s"], "s")

    metrics["server.non2xx"] = (
        sum(1 for o in outcomes if o.status is None or o.status >= 300), "count")
    # The mean, not a bucketed p50: the first bucket (100 us) holds
    # nearly every wait, so an interpolated p50 reads the same each run.
    _, _, wait_sum, wait_count = histogram_parts(snap, "repro_pool_queue_wait_seconds")
    metrics["pool.queue_wait_mean_ms"] = (ratio(wait_sum, wait_count) * 1e3, "ms")
    _, _, size_sum, size_count = histogram_parts(snap, "repro_pool_batch_size")
    metrics["pool.batch_size_mean"] = (ratio(size_sum, size_count), "count")
    served = [w.prepared + w.prepare_hits for w in pool_stats.workers]
    metrics["pool.requests_min_shard_frac"] = (ratio(min(served), sum(served)), "ratio")
    metrics["pool.timeouts"] = (pool_stats.timeouts, "count")
    metrics["pool.respawns"] = (pool_stats.respawns, "count")
    metrics["pool.syncs"] = (pool_stats.syncs, "count")

    combined = pool_stats.combined
    paths = {path: counter_total(snap, "repro_session_results_total", path)
             for path in ("cached", "safe", "reweighted", "grounded", "fallback")}
    reads = paths["cached"] + paths["safe"] + paths["reweighted"] + paths["grounded"]
    metrics["session.result_hit_ratio"] = (ratio(paths["cached"], reads), "ratio")
    metrics["session.prepare_hit_ratio"] = (
        ratio(combined.prepare_hits, combined.prepared + combined.prepare_hits),
        "ratio")
    for path, value in paths.items():
        metrics[f"session.results.{path}"] = (value, "count")

    counts_i, snap_i = inline["counts"], inline["snapshot"]
    metrics["planner.cache_hit_ratio"] = (
        ratio(counts_i.get("planner.cache_hits", 0), counts_i.get("planner.plans", 0)),
        "ratio")
    candidates = counter_total(snap_i, "repro_grounding_candidates_total")
    clauses = counts_i.get("grounding.clauses", 0)
    metrics["grounding.candidates"] = (candidates, "count")
    metrics["grounding.clauses"] = (clauses, "count")
    metrics["grounding.useful_ratio"] = (ratio(clauses, candidates), "ratio")
    metrics["compile.over_budget"] = (counts_i.get("compile.over_budget", 0), "count")
    metrics["compile.cache_hit_ratio"] = (
        ratio(counts_i.get("compile.cache_hits", 0), counts_i.get("compile.attempts", 0)),
        "ratio")
    metrics["sweep.rows"] = (counts_i.get("sweep.rows", 0), "count")
    samples = counter_total(snap_i, "repro_mc_samples_total")
    metrics["mc.samples"] = (counter_total(snap, "repro_mc_samples_total"), "count")
    metrics["mc.samples_per_s"] = (ratio(samples, layers["mc"]["self_s"]), "1/s")
    metrics["mc.mean_abs_err"] = (
        statistics.fmean(mc_errors) if mc_errors else 0.0, "probability")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    self_seconds = {layer: entry["self_s"] for layer, entry in layers.items()}
    return ({name: {"value": value, "unit": unit}
             for name, (value, unit) in metrics.items()}, self_seconds)


def purpose_guards(workload: str, metrics: Dict[str, dict]) -> List[str]:
    """Reasons the traced run says the workload drifted off its purpose."""
    shares = {layer: metrics[f"{layer}.self_share"]["value"] for layer in LAYERS}
    problems = []
    group = PURPOSE[workload]
    mine = sum(shares[layer] for layer in group)
    others = [shares[layer] for layer in shares if layer not in group]
    if mine < max(others):
        problems.append(f"{'+'.join(group)} self time ({mine:.1%}) is not the "
                        f"largest share")
    if workload == "warm_drift":
        heavy = shares["grounding"] + shares["compile"] + shares["mc"]
        if heavy > 0.1:
            problems.append(f"grounding+compile+mc take {heavy:.1%}, not ~0")
    if workload == "ground_churn":
        hit = metrics["session.prepare_hit_ratio"]["value"]
        if hit > 0.5:
            problems.append(f"prepare hit ratio {hit:.2f}: the LRU is not missing")
    shard = metrics["pool.requests_min_shard_frac"]["value"]
    if shard < 0.2:
        problems.append(f"one shard serves only {shard:.1%} of the reads")
    return problems


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def cpu_steal_seconds() -> float:
    """CPU time the hypervisor took from this machine so far (all CPUs)."""
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def provenance(workload: Workload) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": workload.seed,
        "params": workload.params,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "commit": commit,
        "clients": CLIENTS,
        "load": "closed loop, one request in flight per client",
        "pool": POOL_ARGS,
        "server": SERVER_ARGS,
        "session": dataclasses.asdict(SessionConfig()),
    }


def plain_run(workload: Workload, seconds: float) -> dict:
    setups = []
    for attempt in range(SETUPS):
        stack = Stack(workload)
        setups.append(stack.setup_seconds)
        if attempt < SETUPS - 1:
            stack.close()
    clock = Clock(seconds)
    steal = cpu_steal_seconds()
    try:
        logs = drive(stack.transports, workload.streams, clock)
        steal = cpu_steal_seconds() - steal
        rss = stack.worker_rss_mb()
    finally:
        stack.close()
    expected = expected_results(workload, [len(log.outcomes) for log in logs])
    verdict = verify(workload, logs, expected)
    metrics = end_to_end(logs, clock.start, setups, rss)
    return {"logs": logs, "verdict": verdict, "metrics": metrics,
            "setups": setups, "problems": [], "steal_s": steal}


def traced_run(workload: Workload, seconds: float) -> dict:
    """Per-layer replay in two passes (worker-config and inline)."""
    stack = Stack(workload)
    recorder = tracing.Recorder()
    try:
        stats_before = stack.pool.stats()
        snapshot_before = stack.pool.metrics_snapshot()
        clock = Clock(seconds)
        steal = cpu_steal_seconds()
        with tracing.patched(tracing.pool_patches(recorder, stack.pool)):
            logs = drive(stack.transports, workload.streams, clock, recorder)
        steal = cpu_steal_seconds() - steal
        pool_stats = stats_delta(stack.pool.stats(), stats_before)
        snapshot = snapshot_delta(stack.pool.metrics_snapshot(), snapshot_before)
    finally:
        stack.close()
    link_pool_spans(recorder.spans)
    counts = [len(log.outcomes) for log in logs]
    worker = {"spans": recorder.spans, "snapshot": snapshot,
              "stats": pool_stats, "logs": logs}

    # Inline pass: every layer in this process, spans around each
    # layer's entry points; capped at the worker pass's prefix so the
    # same oracle checks it.
    pool = inline_pool(workload)
    inline_recorder = tracing.Recorder()
    inline_clock = Clock(max(1.0, seconds / 4))
    patches = (tracing.layer_patches(inline_recorder)
               + tracing.pool_patches(inline_recorder, pool))
    capped = [stream[:count] for stream, count in zip(workload.streams, counts)]
    inline_before = pool.metrics.snapshot()
    with tracing.patched(patches):
        start = time.perf_counter()
        inline_logs = drive([PoolTransport(pool)] * CLIENTS, capped,
                            inline_clock, inline_recorder)
        traced_wall = max(log.finished for log in inline_logs) - start
    inline = {"spans": inline_recorder.spans, "counts": inline_recorder.counts,
              "snapshot": snapshot_delta(pool.metrics.snapshot(), inline_before),
              "requests": sum(len(log.outcomes) for log in inline_logs)}
    pool.close()

    # The same prefix again, untraced: the difference is the overhead.
    pool = inline_pool(workload)
    replayed = [len(log.outcomes) for log in inline_logs]
    start = time.perf_counter()
    drive([PoolTransport(pool)] * CLIENTS, capped, Clock(0.0, replayed))
    untraced_wall = time.perf_counter() - start
    pool.close()
    overhead = traced_wall / untraced_wall - 1.0

    expected = expected_results(workload, counts)
    verdict = verify(workload, logs, expected)
    inline_verdict = verify(workload, inline_logs, expected, mark=False)
    verdict.exact_mismatches += inline_verdict.exact_mismatches
    metrics, self_seconds = per_layer(worker, inline, overhead,
                                      verdict.mc_errors)
    problems = purpose_guards(workload.name, metrics)
    return {"logs": logs, "verdict": verdict, "metrics": metrics,
            "self_seconds": self_seconds, "problems": problems, "steal_s": steal,
            "spans": {"worker": recorder.export(),
                      "inline": inline_recorder.export()}}


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The spawn start method (pool workers, oracle replays) starts the
    tracker as a child of this process; left alone it exits only after
    this process does, unreaped.  Collecting first lets closed queues
    unregister their semaphores, so none is reported as leaked.
    """
    gc.collect()
    resource_tracker._resource_tracker._stop()


def main(argv: Optional[List[str]] = None) -> int:
    # SIGTERM unwinds like an exception, so the pools still close.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        return measure(argv)
    finally:
        stop_resource_tracker()


def measure(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = GENERATORS[args.workload](args.seed)
    run = (traced_run if args.trace else plain_run)(workload, args.seconds)
    verdict = run["verdict"]
    outcomes = [o for log in run["logs"] for o in log.outcomes]
    failed, attempted, _ = stats.failed_frac(outcomes)
    correct = (verdict.exact_mismatches == 0 and verdict.mc_mismatches == 0
               and not run["problems"])
    record = {
        "provenance": dict(provenance(workload),
                           cpu_steal_s_while_measuring=run["steal_s"]),
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "exact_mismatches": verdict.exact_mismatches,
        "mc_mismatches": verdict.mc_mismatches,
        "mc_mean_abs_err": (statistics.fmean(verdict.mc_errors)
                            if verdict.mc_errors else None),
        "samples": {kind: sum(1 for o in outcomes if o.kind == kind)
                    for kind in KINDS},
        "purpose_problems": run["problems"],
        "layer_self_s": run.get("self_seconds"),
        "metrics": run["metrics"],
    }
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as out:
        json.dump(dict(record, spans=run.get("spans")), out)
    for problem in run["problems"]:
        print(f"purpose guard: {problem}", file=sys.stderr)
    summary = {key: record[key] for key in
               ("provenance", "failed_frac", "exact_mismatches", "mc_mismatches",
                "mc_mean_abs_err", "samples", "layer_self_s")}
    print(json.dumps(summary))
    for metric, entry in run["metrics"].items():
        print(f"{metric}: {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": run["metrics"]}))
    return 0 if verdict.exact_mismatches == 0 and correct else 1


if __name__ == "__main__":
    sys.exit(main())
