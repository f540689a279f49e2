"""E11 — answer-tuple queries: shared-work grounding and multisimulation.

Two measurements behind `answers()`:

* **shared grounding / shared plan state**: ranking every answer with
  one `answers()` call against the naive per-answer Boolean loop
  (enumerate answers, then one independent ``probability`` call per
  residual query): the group-by safe plan on ``Q(x) :- R(x), S(x,y)``
  over a wide-fanout database and circuit-cache sharing on an
  unsafe-residual ring.  Both ratios are reported, not asserted;
  agreement with the naive loop is checked to 1e-9.
* **multisimulation sample savings**: Monte Carlo ``answers(..., k)``
  stops sampling answers whose confidence interval is dominated, so a
  top-k ranking costs a fraction of ``k`` independent full-precision
  runs (≤60% of the per-answer sample cap here; in practice far less).

Runs standalone for the CI smoke: ``python benchmarks/bench_answers.py
--smoke`` (tiny sizes, correctness only, no timing assertions).
"""

import argparse
import random
import sys
import time

import pytest

from repro.core import parse
from repro.db.database import ProbabilisticDatabase
from repro.engines import (
    CompiledEngine,
    LineageEngine,
    MonteCarloEngine,
    SafePlanEngine,
    rank_answers,
)
from repro.lineage.grounding import answer_tuples

STAR = parse("Q(x) :- R(x), S(x,y)")
RING = parse("Q(x) :- R(x), S(x,y), S(y,x)")


def wide_fanout_db(answers, fanout, seed=0):
    """Many answer tuples, each witnessed by ``fanout`` S-tuples."""
    rng = random.Random(seed)
    db = ProbabilisticDatabase()
    for a in range(answers):
        db.add("R", (a,), rng.uniform(0.2, 0.9))
        for j in range(fanout):
            db.add("S", (a, 1000 + j), rng.uniform(0.2, 0.9))
    return db


def ring_db(answers, fanout, seed=0, separated=False):
    """Unsafe-residual instance: every answer lineage is a small ring.

    With ``separated``, the first three answers get well-spaced high
    marginals and the tail stays low — the regime where top-k
    multisimulation prunes hardest (and where its ranking is stable
    enough to assert against the exact one).
    """
    rng = random.Random(seed)
    db = ProbabilisticDatabase()
    for a in range(answers):
        if separated:
            r_prob = (0.95, 0.75, 0.55)[a] if a < 3 else rng.uniform(0.1, 0.2)
        else:
            r_prob = rng.uniform(0.2, 0.9)
        db.add("R", (a,), r_prob)
        for j in range(fanout):
            b = 1000 + j
            db.add("S", (a, b), rng.uniform(0.4, 0.9))
            db.add("S", (b, a), rng.uniform(0.4, 0.9))
    return db


def naive_answers(engine, query, db):
    """The pre-refactor loop: shared answer enumeration, then one
    fully independent Boolean evaluation per residual query."""
    return rank_answers([
        (answer, engine.probability(query.bind_head(answer), db))
        for answer in answer_tuples(query, db)
    ])


def _assert_same(shared, naive):
    assert len(shared) == len(naive)
    for (a1, p1), (a2, p2) in zip(shared, naive):
        assert a1 == a2
        assert p1 == pytest.approx(p2, abs=1e-9)


def shared_vs_naive(engine, query, db):
    """(shared seconds, naive seconds) with agreement checked."""
    start = time.perf_counter()
    shared = engine.answers(query, db)
    t_shared = time.perf_counter() - start
    start = time.perf_counter()
    naive = naive_answers(engine, query, db)
    t_naive = time.perf_counter() - start
    _assert_same(shared, naive)
    return t_shared, t_naive


def multisimulation_costs(answers=24, fanout=5, samples=3000, k=3):
    """(top-k samples drawn, per-answer cap total, rank agreement)."""
    db = ring_db(answers, fanout, seed=2, separated=True)
    exact = LineageEngine().answers(RING, db)
    mc = MonteCarloEngine(samples=samples, seed=7)
    top = mc.answers(RING, db, k=k)
    cap = samples * len(exact)
    agree = [a for a, _ in top] == [a for a, _ in exact[:k]]
    return mc.last_samples_drawn, cap, agree


@pytest.mark.bench_table("E11")
def test_shared_answers_agree_with_naive_loop(report):
    db = wide_fanout_db(200, 8)
    plan = SafePlanEngine()
    rows = [(plan.name, *shared_vs_naive(plan, STAR, db))]
    compiled = CompiledEngine()
    t_shared, t_naive = shared_vs_naive(compiled, RING, ring_db(60, 6))
    rows.append((compiled.name, t_shared, t_naive))
    for name, t_s, t_n in rows:
        report.append(
            f"E11 {name:14s} shared {t_s * 1e3:8.1f} ms  "
            f"naive {t_n * 1e3:8.1f} ms  ({t_n / t_s:.1f}x)"
        )


@pytest.mark.bench_table("E11")
def test_multisimulation_sample_savings(report):
    drawn, cap, agree = multisimulation_costs()
    report.append(
        f"E11 multisimulation top-3: {drawn} samples vs {cap} naive cap "
        f"({100.0 * drawn / cap:.0f}%)"
    )
    assert agree
    assert drawn <= 0.6 * cap


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, correctness only (used by CI)",
    )
    args = parser.parse_args(argv)
    answers, fanout = (20, 4) if args.smoke else (200, 8)
    plan = SafePlanEngine()
    t_shared, t_naive = shared_vs_naive(
        plan, STAR, wide_fanout_db(answers, fanout)
    )
    print(
        f"{plan.name:14s} shared {t_shared * 1e3:8.1f} ms  "
        f"naive {t_naive * 1e3:8.1f} ms  ({t_naive / max(t_shared, 1e-9):.1f}x)"
    )
    compiled = CompiledEngine()
    t_shared, t_naive = shared_vs_naive(
        compiled, RING, ring_db(*((12, 3) if args.smoke else (60, 6)))
    )
    print(
        f"{compiled.name:14s} shared {t_shared * 1e3:8.1f} ms  "
        f"naive {t_naive * 1e3:8.1f} ms  ({t_naive / max(t_shared, 1e-9):.1f}x)"
        f"  [circuit cache: {compiled.cache.stats()}]"
    )
    drawn, cap, agree = (
        multisimulation_costs(answers=8, fanout=3, samples=400)
        if args.smoke
        else multisimulation_costs()
    )
    print(
        f"multisimulation top-3: {drawn} samples vs {cap} naive cap "
        f"({100.0 * drawn / cap:.0f}%)"
    )
    if not agree:
        print("FAIL: multisimulation top-k disagrees with exact ranking",
              file=sys.stderr)
        return 1
    if not args.smoke and drawn > 0.6 * cap:
        print("FAIL: multisimulation saved fewer than 40% of samples",
              file=sys.stderr)
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
