"""S1 — throughput of the vectorized Monte Carlo sampler.

The paper's headline contrast is "safe plans in seconds, simulation in
minutes"; this benchmark pins how fast the simulation side now runs.
Both estimators (naive world sampling and Karp–Luby) are measured in
samples/second on the bit-matrix core, on synthetic DNF lineages in
the small-probability regime that Karp–Luby exists for.

Emits ``BENCH_sampling.json``: one throughput row per estimator plus
an agreement check against exact WMC.

The headline assertion: on a 500-clause lineage, Karp–Luby runs at
**≥1.3×** the samples/sec this benchmark recorded before its kernel
was first reworked (``PREVIOUS_KARP_LUBY_RATE``).

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

from repro.engines.montecarlo import KarpLubySampler, naive_estimate
from repro.lineage.boolean import make_lineage
from repro.lineage.wmc import exact_probability

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_sampling.json"

#: The headline instance: 500 distinct 3-literal clauses over 250
#: events with small marginals (p ≈ 0.58 — the regime where the naive
#: estimator needs its hits and Karp–Luby scans deep per trial).
HEADLINE = dict(n_events=250, n_clauses=500, clause_len=3,
                low=0.005, high=0.08, seed=42)
#: Small instance where the exact WMC oracle is cheap — used for the
#: statistical cross-check of both estimators.
CHECK = dict(n_events=30, n_clauses=40, clause_len=3,
             low=0.05, high=0.4, seed=7)
#: The Karp–Luby samples/s this benchmark recorded before the
#: vectorized kernel was first reworked — the ≥1.3× bar's denominator.
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


def measure(lineage, samples, repeats=3):
    """One throughput row per estimator on one lineage."""

    def run_karp_luby(attempt):
        KarpLubySampler(lineage, random.Random(1 + attempt)).extend(samples)

    def run_naive(attempt):
        naive_estimate(lineage, samples, random.Random(1 + attempt))

    rows = []
    for estimator, run in (("karp-luby", run_karp_luby), ("naive", run_naive)):
        rate, seconds = _best_rate(run, samples, repeats)
        rows.append({
            "estimator": estimator,
            "samples": samples,
            "seconds": round(seconds, 6),
            "samples_per_sec": round(rate),
        })
    return rows


def karp_luby_rate(rows):
    return next(
        row["samples_per_sec"] for row in rows
        if row["estimator"] == "karp-luby"
    )


def agreement(samples=30_000):
    """Both estimators vs the exact oracle on the small check lineage."""
    lineage = synthetic_lineage(**CHECK)
    exact = exact_probability(lineage)
    sampler = KarpLubySampler(lineage, random.Random(11))
    sampler.extend(samples)
    estimate, half_width = sampler.interval()
    naive = naive_estimate(lineage, samples, random.Random(11))
    assert abs(estimate - exact) <= max(4 * half_width, 0.02), (
        f"karp-luby {estimate} vs exact {exact}"
    )
    assert abs(naive - exact) <= 0.02, f"naive {naive} vs exact {exact}"
    return {
        "exact": round(exact, 6),
        "karp_luby": round(estimate, 6),
        "half_width": round(half_width, 6),
        "naive": round(naive, 6),
    }


# ----------------------------------------------------------------------
# pytest entry points (run via `pytest benchmarks/bench_sampling.py`)
# ----------------------------------------------------------------------


@pytest.mark.bench_table("S1")
def test_karp_luby_at_least_1_3x_previous_rate(report):
    rows = measure(synthetic_lineage(**HEADLINE), 400_000)
    for row in rows:
        report.append(
            f"S1  {row['estimator']:9s} "
            f"{row['samples_per_sec']:>12,d} samples/s"
        )
    assert karp_luby_rate(rows) >= 1.3 * PREVIOUS_KARP_LUBY_RATE


@pytest.mark.bench_table("S1")
def test_estimators_agree_with_exact(report):
    row = agreement()
    report.append(
        f"S1  agreement exact={row['exact']:.4f} "
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
        rows = measure(lineage, 5_000, repeats=1)
    else:
        rows = measure(lineage, 400_000, repeats=3)
    for row in rows:
        print(
            f"{row['estimator']:9s} "
            f"{row['samples_per_sec']:>12,d} samples/s "
            f"({row['samples']} samples in {row['seconds'] * 1e3:.1f} ms)"
        )
    check = agreement(samples=5_000 if args.smoke else 30_000)
    print(
        f"agreement: exact={check['exact']:.4f} "
        f"kl={check['karp_luby']:.4f}±{check['half_width']:.4f} "
        f"naive={check['naive']:.4f}"
    )
    payload = {
        "benchmark": "sampling",
        "smoke": args.smoke,
        "lineage": {
            "clauses": lineage.clause_count(),
            "events": lineage.variable_count,
            "literals": lineage.literal_count(),
        },
        "rows": rows,
        "agreement": check,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if not args.smoke:
        headline_rate = karp_luby_rate(rows)
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
