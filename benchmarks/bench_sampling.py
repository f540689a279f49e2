"""S1 — the vectorized sampling core vs the scalar Monte Carlo backends.

The paper's headline contrast is "safe plans in seconds, simulation in
minutes"; this benchmark pins how fast the simulation side now runs.
Both estimators (naive world sampling and Karp–Luby) are measured in
samples/second under the scalar ``backend="python"`` loops and the
vectorized ``backend="numpy"`` bit-matrix core, on synthetic DNF
lineages in the small-probability regime that Karp–Luby exists for.

Emits ``BENCH_sampling.json`` — the first point of the repository's
performance trajectory: per-backend throughput rows plus the
vectorized/scalar speedup ratios.

The headline assertion: on a 500-clause lineage, vectorized Karp–Luby
is **≥10× samples/sec** over the scalar backend (naive sampling gains
even more, typically 30×+).  The full run also asserts the numpy
backend is **≥1.3×** the karp-luby/numpy rate recorded before its
kernel was first reworked (``PREVIOUS_KARP_LUBY_RATE``).

Runs standalone for the CI smoke: ``python benchmarks/bench_sampling.py
--smoke`` (tiny sample counts, correctness cross-check only, no timing
assertions; still writes the JSON).
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path

import pytest

from repro.engines.montecarlo import (
    KarpLubySampler,
    naive_estimate,
    resolve_backend,
)
from repro.lineage.boolean import make_lineage
from repro.lineage.packed import HAVE_NUMPY
from repro.lineage.wmc import exact_probability

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_sampling.json"

#: The headline instance: 500 distinct 3-literal clauses over 250
#: events with small marginals (p ≈ 0.58 — the regime where the naive
#: estimator needs its hits and Karp–Luby scans deep per trial).
HEADLINE = dict(n_events=250, n_clauses=500, clause_len=3,
                low=0.005, high=0.08, seed=42)
#: Small instance where the exact WMC oracle is cheap — used for the
#: statistical cross-check of every (estimator, backend) pair.
CHECK = dict(n_events=30, n_clauses=40, clause_len=3,
             low=0.05, high=0.4, seed=7)
#: The karp-luby/numpy samples/s this benchmark recorded before the
#: numpy kernel was first reworked — the ≥1.3× bar's denominator.
PREVIOUS_KARP_LUBY_RATE = 332_324


def synthetic_lineage(n_events, n_clauses, clause_len, low, high, seed):
    """A deterministic random k-DNF with distinct same-size clauses.

    Same-size distinct clauses cannot absorb one another, so the
    normalized lineage has exactly ``n_clauses`` clauses.
    """
    rng = random.Random(seed)
    weights = {("E", (i,)): rng.uniform(low, high) for i in range(n_events)}
    keys = list(weights)
    seen, clauses = set(), []
    while len(clauses) < n_clauses:
        ids = frozenset(rng.sample(range(n_events), clause_len))
        if ids in seen:
            continue
        seen.add(ids)
        clauses.append(
            tuple((keys[i], rng.random() < 0.9) for i in sorted(ids))
        )
    lineage = make_lineage(clauses, weights)
    assert lineage.clause_count() == n_clauses
    return lineage


def _best_rate(run, samples, repeats=3):
    """Best samples/sec over ``repeats`` runs (min-noise timing)."""
    best = float("inf")
    for attempt in range(repeats):
        start = time.perf_counter()
        run(attempt)
        best = min(best, time.perf_counter() - start)
    return samples / best, best


def measure(lineage, samples_by_backend, repeats=3):
    """Throughput rows + speedups for both estimators on one lineage."""
    rows = []
    rates = {}
    backends = ["python"]
    if HAVE_NUMPY:
        backends.append("numpy")
    for backend in backends:
        samples = samples_by_backend[backend]

        def run_karp_luby(attempt):
            sampler = KarpLubySampler(
                lineage, random.Random(1 + attempt), backend
            )
            sampler.extend(samples)

        def run_naive(attempt):
            naive_estimate(lineage, samples, random.Random(1 + attempt), backend)

        for estimator, run in (
            ("karp-luby", run_karp_luby), ("naive", run_naive)
        ):
            rate, seconds = _best_rate(run, samples, repeats)
            rates[(estimator, backend)] = rate
            rows.append({
                "estimator": estimator,
                "backend": backend,
                "samples": samples,
                "seconds": round(seconds, 6),
                "samples_per_sec": round(rate),
            })
    speedups = {}
    for estimator in ("karp-luby", "naive"):
        if (estimator, "numpy") in rates:
            speedups[estimator] = round(
                rates[(estimator, "numpy")] / rates[(estimator, "python")], 2
            )
    return rows, speedups


def agreement_rows(samples=30_000):
    """Both backends vs the exact oracle on the small check lineage."""
    lineage = synthetic_lineage(**CHECK)
    exact = exact_probability(lineage)
    rows = []
    for backend in ("python", "numpy"):
        if backend == "numpy" and not HAVE_NUMPY:
            continue
        sampler = KarpLubySampler(lineage, random.Random(11), backend)
        sampler.extend(samples)
        estimate, half_width = sampler.interval()
        naive = naive_estimate(lineage, samples, random.Random(11), backend)
        assert abs(estimate - exact) <= max(4 * half_width, 0.02), (
            f"karp-luby[{backend}] {estimate} vs exact {exact}"
        )
        assert abs(naive - exact) <= 0.02, (
            f"naive[{backend}] {naive} vs exact {exact}"
        )
        rows.append({
            "backend": backend,
            "exact": round(exact, 6),
            "karp_luby": round(estimate, 6),
            "half_width": round(half_width, 6),
            "naive": round(naive, 6),
        })
    return rows


# ----------------------------------------------------------------------
# pytest entry points (run via `pytest benchmarks/bench_sampling.py`)
# ----------------------------------------------------------------------


@pytest.mark.bench_table("S1")
def test_vectorized_karp_luby_at_least_10x(report):
    if not HAVE_NUMPY:
        pytest.skip("numpy unavailable")
    lineage = synthetic_lineage(**HEADLINE)
    rows, speedups = measure(
        lineage, {"python": 2_000, "numpy": 400_000}
    )
    for row in rows:
        report.append(
            f"S1  {row['estimator']:9s} {row['backend']:6s} "
            f"{row['samples_per_sec']:>12,d} samples/s"
        )
    report.append(
        f"S1  speedups: karp-luby {speedups['karp-luby']}x, "
        f"naive {speedups['naive']}x"
    )
    assert speedups["karp-luby"] >= 10.0
    assert speedups["naive"] >= 10.0


@pytest.mark.bench_table("S1")
def test_backends_agree_with_exact(report):
    for row in agreement_rows():
        report.append(
            f"S1  agreement {row['backend']:6s} exact={row['exact']:.4f} "
            f"kl={row['karp_luby']:.4f}±{row['half_width']:.4f} "
            f"naive={row['naive']:.4f}"
        )


# ----------------------------------------------------------------------
# Standalone / CI smoke
# ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sample counts, correctness only (used by CI)",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"where to write the JSON artifact (default {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)
    lineage = synthetic_lineage(**HEADLINE)
    if args.smoke:
        samples = {"python": 500, "numpy": 5_000}
        repeats = 1
    else:
        samples = {"python": 2_000, "numpy": 400_000}
        repeats = 3
    rows, speedups = measure(lineage, samples, repeats)
    for row in rows:
        print(
            f"{row['estimator']:9s} {row['backend']:6s} "
            f"{row['samples_per_sec']:>12,d} samples/s "
            f"({row['samples']} samples in {row['seconds'] * 1e3:.1f} ms)"
        )
    for estimator, ratio in speedups.items():
        print(f"{estimator}: vectorized {ratio}x scalar")
    agreement = agreement_rows(samples=5_000 if args.smoke else 30_000)
    for row in agreement:
        print(
            f"agreement {row['backend']:6s}: exact={row['exact']:.4f} "
            f"kl={row['karp_luby']:.4f}±{row['half_width']:.4f} "
            f"naive={row['naive']:.4f}"
        )
    payload = {
        "benchmark": "sampling",
        "smoke": args.smoke,
        "numpy": HAVE_NUMPY,
        "default_backend": resolve_backend("auto"),
        "lineage": {
            "clauses": lineage.clause_count(),
            "events": lineage.variable_count,
            "literals": lineage.literal_count(),
        },
        "rows": rows,
        "speedup": speedups,
        "agreement": agreement,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if not args.smoke and HAVE_NUMPY and speedups.get("karp-luby", 0) < 10.0:
        print("FAIL: vectorized Karp-Luby below the 10x bar", file=sys.stderr)
        return 1
    if not args.smoke and HAVE_NUMPY:
        headline_rate = next(
            row["samples_per_sec"] for row in rows
            if row["estimator"] == "karp-luby"
            and row["backend"] == resolve_backend("auto")
        )
        if headline_rate < 1.3 * PREVIOUS_KARP_LUBY_RATE:
            print(
                f"FAIL: karp-luby {headline_rate:,d} samples/s < 1.3x the "
                f"earlier recording ({PREVIOUS_KARP_LUBY_RATE:,d})",
                file=sys.stderr,
            )
            return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
