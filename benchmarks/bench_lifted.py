"""Lifted evaluation of UCQs: exact PTIME vs brute force, minimization wins.

Three claims behind the first-class union IR:

* **PTIME vs 2^tuples**: a safe union with a self-join
  (``R(x,x) | R(x,y), x < y``) evaluates exactly through the lifted
  inclusion–exclusion rules in time polynomial in the database, while
  possible-world enumeration doubles per tuple.  The benchmark pins
  agreement at 1e-9 on the sizes brute force can still reach, then
  scales the lifted engine far beyond them (cross-checked against the
  WMC oracle).
* **containment minimization**: a disjunct with redundant self-join
  atoms (``R(x,y1), R(x,y2), R(x,y3)`` cores to ``R(x,y1)``) collapses
  under ``minimize_queries=True``; with per-CQ minimization off the
  solver keeps the self-join and pays separator refinement plus
  inclusion–exclusion over the extra sub-goals.  (Cross-disjunct
  containment pruning is always on — it is part of normalization, not
  of the ``minimize_queries`` knob.)  The JSON records both timings
  and the speedup.
* **shared answer evaluation**: a union of rules whose first disjunct
  carries an answer-independent component (``W(u,v), u < v``) ranks
  all answers with one ``answers()`` call — one memoized solver
  evaluates the shared component once — beating the naive loop of
  independent per-answer Boolean evaluations, which re-derives it per
  answer.

Emits ``BENCH_lifted.json``.  CI smoke: ``python
benchmarks/bench_lifted.py --smoke`` (tiny sizes, correctness
assertions only, no timing bars; still writes the JSON).
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.core import parse
from repro.db import ProbabilisticDatabase
from repro.engines import (
    BruteForceEngine,
    LiftedEngine,
    LineageEngine,
    rank_answers,
)
from repro.lineage.grounding import answer_tuples

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_lifted.json"

#: Safe despite the self-join: the disjuncts split the R-pairs into
#: diagonal and ordered off-diagonal, which the lifted rules separate.
SELF_JOIN_UNION = "R(x,x) | R(x,y), x < y"

#: A union of rules whose first disjunct has an answer-independent
#: component — the memoized solver evaluates it once across answers.
ANSWER_UNION = "Q(x) :- A(x), W(u,v), u < v; Q(z) :- S(z)"


def pair_db(domain, seed=0):
    """Every R-pair over ``{0..domain-1}`` with a random probability."""
    rng = random.Random(seed)
    db = ProbabilisticDatabase()
    for a in range(domain):
        for b in range(domain):
            db.add("R", (a, b), rng.uniform(0.1, 0.9))
    return db


def answers_db(answers, w_domain, seed=1):
    rng = random.Random(seed)
    db = ProbabilisticDatabase()
    for a in range(answers):
        db.add("A", (a,), rng.uniform(0.1, 0.9))
        db.add("S", (a,), rng.uniform(0.1, 0.9))
    for a in range(w_domain):
        for b in range(w_domain):
            db.add("W", (a, b), rng.uniform(0.1, 0.9))
    return db


def redundant_union(k):
    """``R(x,y1), ..., R(x,yk) | S(x), T(y)`` — the first disjunct's
    core is ``R(x,y1)``; unminimized it is a k-way self-join."""
    atoms = ", ".join(f"R(x,y{i})" for i in range(1, k + 1))
    return parse(f"{atoms} | S(x), T(y)")


def redundant_db(domain, seed=2):
    rng = random.Random(seed)
    db = pair_db(domain, seed)
    for a in range(domain):
        db.add("S", (a,), rng.uniform(0.1, 0.9))
        db.add("T", (a,), rng.uniform(0.1, 0.9))
    return db


def timed(run):
    start = time.perf_counter()
    value = run()
    return value, time.perf_counter() - start


def bench_vs_brute(brute_domains, lifted_domains):
    """Lifted vs brute force on the self-join union, then lifted alone
    (WMC-checked) on sizes brute force cannot reach."""
    query = parse(SELF_JOIN_UNION)
    lifted = LiftedEngine()
    rows = []
    for domain in brute_domains:
        db = pair_db(domain)
        exact, t_brute = timed(lambda: BruteForceEngine().probability(query, db))
        value, t_lifted = timed(lambda: lifted.probability(query, db))
        assert abs(value - exact) < 1e-9, (domain, value, exact)
        rows.append({
            "domain": domain, "tuples": db.tuple_count(),
            "lifted_seconds": round(t_lifted, 6),
            "brute_seconds": round(t_brute, 6),
        })
    for domain in lifted_domains:
        db = pair_db(domain)
        exact = LineageEngine().probability(query, db)
        value, t_lifted = timed(lambda: lifted.probability(query, db))
        assert abs(value - exact) < 1e-9, (domain, value, exact)
        rows.append({
            "domain": domain, "tuples": db.tuple_count(),
            "lifted_seconds": round(t_lifted, 6),
            "brute_seconds": None,
        })
    return rows


def bench_minimization(k, domain):
    """One value, computed with and without per-CQ minimization."""
    query = redundant_union(k)
    db = redundant_db(domain)
    on, t_on = timed(lambda: LiftedEngine().probability(query, db))
    off, t_off = timed(
        lambda: LiftedEngine(minimize_queries=False).probability(query, db)
    )
    assert abs(on - off) < 1e-9, (on, off)
    return {
        "redundant_atoms": k, "domain": domain,
        "minimize_on_seconds": round(t_on, 6),
        "minimize_off_seconds": round(t_off, 6),
        "speedup": round(t_off / max(t_on, 1e-9), 2),
    }


def naive_answers(engine, query, db):
    """One independent Boolean evaluation per residual query."""
    return rank_answers([
        (answer, engine.probability(query.bind_head(answer), db))
        for answer in answer_tuples(query, db)
    ])


def bench_shared_answers(answers, w_domain):
    """``answers()`` (shared solver) vs independent per-answer loop."""
    query = parse(ANSWER_UNION)
    db = answers_db(answers, w_domain)
    lifted = LiftedEngine()
    shared, t_shared = timed(lambda: lifted.answers(query, db))
    naive, t_naive = timed(lambda: naive_answers(lifted, query, db))
    assert len(shared) == len(naive)
    for (a1, p1), (a2, p2) in zip(shared, naive):
        assert a1 == a2 and abs(p1 - p2) < 1e-9
    return {
        "answers": len(shared), "w_domain": w_domain,
        "shared_seconds": round(t_shared, 6),
        "naive_seconds": round(t_naive, 6),
        "speedup": round(t_naive / max(t_shared, 1e-9), 2),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, correctness only (used by CI)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    if args.smoke:
        vs_brute = bench_vs_brute(brute_domains=(2, 3), lifted_domains=(6,))
        minimization = bench_minimization(k=3, domain=6)
        shared = bench_shared_answers(answers=8, w_domain=6)
    else:
        vs_brute = bench_vs_brute(
            brute_domains=(2, 3, 4), lifted_domains=(8, 16, 32)
        )
        minimization = bench_minimization(k=3, domain=12)
        shared = bench_shared_answers(answers=30, w_domain=14)

    report = {
        "benchmark": "lifted-ucq",
        "smoke": args.smoke,
        "self_join_union": SELF_JOIN_UNION,
        "vs_brute_force": vs_brute,
        "minimization": minimization,
        "shared_answers": shared,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")

    for row in vs_brute:
        brute = (
            f"brute {row['brute_seconds'] * 1e3:9.1f} ms"
            if row["brute_seconds"] is not None else "brute        --"
        )
        print(
            f"domain {row['domain']:3d} ({row['tuples']:5d} tuples)  "
            f"lifted {row['lifted_seconds'] * 1e3:8.1f} ms  {brute}"
        )
    print(
        f"minimization: on {minimization['minimize_on_seconds'] * 1e3:.1f} ms"
        f"  off {minimization['minimize_off_seconds'] * 1e3:.1f} ms"
        f"  ({minimization['speedup']}x)"
    )
    print(
        f"shared answers: {shared['shared_seconds'] * 1e3:.1f} ms"
        f"  naive {shared['naive_seconds'] * 1e3:.1f} ms"
        f"  ({shared['speedup']}x)"
    )

    if not args.smoke:
        largest_brute = [
            r for r in vs_brute if r["brute_seconds"] is not None
        ][-1]
        if largest_brute["lifted_seconds"] > largest_brute["brute_seconds"]:
            print("FAIL: lifted slower than brute force at the largest "
                  "enumerable size", file=sys.stderr)
            return 1
        if minimization["speedup"] < 1.5:
            print("FAIL: containment minimization below the 1.5x bar",
                  file=sys.stderr)
            return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
