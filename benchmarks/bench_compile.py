"""E8 — knowledge compilation vs the Shannon-expansion WMC oracle.

Three exact backends on the same lineages:

* the recursive WMC oracle (recounts everything, keeps no artifact);
* the OBDD compiler (compile once, evaluate linearly, re-evaluate
  under changed marginals without recompiling);
* the d-DNNF compiler (the WMC trace, recorded as a circuit).

Two workload shapes, scaled over database size:

* hierarchical ``R(x), S(x,y)`` star joins — safe, lineages compile to
  linear-size OBDDs under the hierarchy ordering;
* non-hierarchical ``R(x), S(x,y), T(y)`` — #P-hard in general; small
  instances still compile, which is exactly the router's new tier 3.

The headline assertion: after a single tuple-marginal update, one
linear sweep of the already-compiled OBDD (what the serving layer does
on a probability-only change) is **≥10× faster** than recompiling and
recounting from scratch — the amortization that justifies keeping
compiled artifacts around.

Runs standalone for the CI smoke: ``python benchmarks/bench_compile.py
--smoke`` (tiny sizes, no timing assertions).
"""

import argparse
import sys
import time

import numpy as np
import pytest

from repro.compile import compile_dnnf, compile_obdd
from repro.core import parse
from repro.db import random_database, star_join_instance
from repro.lineage.grounding import ground_lineage
from repro.lineage.wmc import exact_probability

HIER = parse("R(x), S(x,y)")
NONHIER = parse("R(x), S(x,y), T(y)")


def _time(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _hier_db(fanout):
    return star_join_instance(fanout, 5, seed=7)


def _nonhier_db(domain):
    return random_database(
        {"R": 1, "S": 2, "T": 1}, domain_size=domain, density=0.3, seed=7
    )


def backend_rows(query, db, label):
    """One row per backend: (name, seconds, probability, size)."""
    lineage = ground_lineage(query, db)
    rows = []
    t, p = _time(lambda: exact_probability(lineage))
    rows.append((f"{label} wmc", t, p, lineage.clause_count()))
    t, obdd = _time(lambda: compile_obdd(lineage, "auto", query))
    p_obdd = obdd.probability(lineage.weights)
    rows.append((f"{label} obdd", t, p_obdd, obdd.size))
    t, dnnf = _time(lambda: compile_dnnf(lineage, query))
    p_dnnf = dnnf.probability(lineage.weights)
    rows.append((f"{label} dnnf", t, p_dnnf, dnnf.size))
    assert p_obdd == pytest.approx(p, abs=1e-9)
    assert p_dnnf == pytest.approx(p, abs=1e-9)
    return rows


@pytest.mark.bench_table("E8")
def test_backends_agree_across_scales(report):
    for fanout in (20, 60, 180):
        for name, seconds, p, size in backend_rows(
            HIER, _hier_db(fanout), f"E8 hier n={fanout:<4d}"
        ):
            report.append(
                f"{name:22s} {seconds * 1e3:8.2f} ms  p={p:.6f}  size={size}"
            )
    for domain in (4, 8, 12):
        for name, seconds, p, size in backend_rows(
            NONHIER, _nonhier_db(domain), f"E8 nonh d={domain:<4d}"
        ):
            report.append(
                f"{name:22s} {seconds * 1e3:8.2f} ms  p={p:.6f}  size={size}"
            )


@pytest.mark.bench_table("E8")
def test_hierarchical_obdd_scales_linearly(report):
    sizes = {}
    for fanout in (30, 60, 120):
        lineage = ground_lineage(HIER, _hier_db(fanout))
        sizes[fanout] = compile_obdd(lineage, "hierarchy", HIER).size
    report.append(
        f"E8  obdd size under hierarchy ordering: "
        + ", ".join(f"n={k}: {v}" for k, v in sizes.items())
    )
    # Linear, not quadratic: 4x the instance stays within ~5x the nodes.
    assert sizes[120] <= 5 * sizes[30]


def reweighting_speedup(fanout=150):
    """(scratch seconds, sweep seconds) for one marginal update."""
    db = _hier_db(fanout)
    lineage = ground_lineage(HIER, db)
    compiled = compile_obdd(lineage, "hierarchy", HIER)
    weights = dict(lineage.weights)
    weights[sorted(lineage.events(), key=str)[0]] = 0.123

    def scratch():
        # What a system without compiled artifacts must do on every
        # marginal change: recompile the lineage and recount.
        return compile_obdd(lineage, "hierarchy", HIER).probability(weights)

    t_scratch, p_scratch = _time(scratch)
    t_sweep, p_sweep = _time(lambda: compiled.probability(weights))
    assert p_sweep == pytest.approx(p_scratch, abs=1e-9)
    return t_scratch, t_sweep


@pytest.mark.bench_table("E8")
def test_reweighting_sweep_at_least_10x_over_recompile(report):
    t_scratch, t_sweep = reweighting_speedup()
    ratio = t_scratch / max(t_sweep, 1e-9)
    report.append(
        f"E8  re-weighting: scratch {t_scratch * 1e3:.2f} ms vs "
        f"sweep {t_sweep * 1e6:.0f} µs -> {ratio:.0f}x"
    )
    assert ratio >= 10.0


def batched_reweighting(fanout=100, batch=64):
    """(per-row seconds, batched seconds) for ``batch`` re-weightings.

    The scalar loop walks the circuit once per weight configuration;
    ``probability_batch`` walks it once total, with numpy vectors as
    node values.  Also cross-checks the two evaluations agree.
    """
    db = _hier_db(fanout)
    lineage = ground_lineage(HIER, db)
    compiled = compile_obdd(lineage, "hierarchy", HIER)
    events = sorted(lineage.events(), key=str)
    rng = np.random.default_rng(3)
    matrix = rng.uniform(0.05, 0.95, size=(batch, len(events)))

    def per_row():
        return [
            compiled.probability(
                {e: matrix[row, j] for j, e in enumerate(events)}
            )
            for row in range(batch)
        ]

    def batched():
        return compiled.probability_batch(events, matrix)

    t_rows, rows = _time(per_row)
    t_batch, values = _time(batched)
    for row in range(batch):
        assert values[row] == pytest.approx(rows[row], abs=1e-9)
    return t_rows, t_batch


@pytest.mark.bench_table("E8")
def test_batched_reweighting_beats_per_row(report):
    t_rows, t_batch = batched_reweighting()
    ratio = t_rows / max(t_batch, 1e-9)
    report.append(
        f"E8  64-row re-weighting: per-row {t_rows * 1e3:.2f} ms vs "
        f"batched {t_batch * 1e3:.2f} ms -> {ratio:.1f}x"
    )
    assert ratio >= 2.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, correctness only (used by CI)",
    )
    args = parser.parse_args(argv)
    fanouts = (4, 8) if args.smoke else (20, 60, 180)
    domains = (3, 4) if args.smoke else (4, 8, 12)
    for fanout in fanouts:
        for name, seconds, p, size in backend_rows(
            HIER, _hier_db(fanout), f"hier n={fanout:<4d}"
        ):
            print(f"{name:20s} {seconds * 1e3:8.2f} ms  p={p:.6f}  size={size}")
    for domain in domains:
        for name, seconds, p, size in backend_rows(
            NONHIER, _nonhier_db(domain), f"nonh d={domain:<4d}"
        ):
            print(f"{name:20s} {seconds * 1e3:8.2f} ms  p={p:.6f}  size={size}")
    t_scratch, t_sweep = reweighting_speedup(20 if args.smoke else 150)
    ratio = t_scratch / max(t_sweep, 1e-9)
    print(
        f"re-weighting: scratch {t_scratch * 1e3:.3f} ms vs sweep "
        f"{t_sweep * 1e6:.0f} µs -> {ratio:.0f}x"
    )
    if not args.smoke and ratio < 10.0:
        print("FAIL: re-weighting sweep below the 10x bar", file=sys.stderr)
        return 1
    t_rows, t_batch = batched_reweighting(20 if args.smoke else 100)
    print(
        f"64-row re-weighting: per-row {t_rows * 1e3:.2f} ms vs "
        f"batched {t_batch * 1e3:.2f} ms -> "
        f"{t_rows / max(t_batch, 1e-9):.1f}x"
    )
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
