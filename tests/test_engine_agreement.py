"""Integration: all exact engines agree on random instances.

The lineage-WMC oracle anchors everything; the brute-force engine
validates the oracle itself on tiny instances; safe-plan and lifted
must match wherever their preconditions hold.
"""

import pytest

from repro.core import parse
from repro.db import random_database_for_query
from repro.engines import (
    BruteForceEngine,
    CompiledEngine,
    LiftedEngine,
    LineageEngine,
    RouterEngine,
    SafePlanEngine,
)
from repro.lineage.grounding import ground_lineage
from repro.lineage.wmc import exact_probability
from repro.queries import zoo

brute = BruteForceEngine()
lineage = LineageEngine()
lifted = LiftedEngine()
plan = SafePlanEngine()

SAFE_NO_SELFJOIN = [
    "R(x), S(x,y)",
    "R(x,y), S(y)",
    "R(x), S(x,y), T(x,y,z)",
    "R(x), U(v), S(x, w)",
]
SAFE_SELFJOIN = [
    "R(x,y), R(y,x)",
    "P(x), R(x,y), R(xp,yp), S(xp)",
    "R(x), S(x,y), S(xp,yp), T(xp)",
    "R(x,y,y,x), R(x,y,x,z)",
]
UNSAFE = [
    "R(x), S(x,y), T(y)",
    "R(x,y), R(y,z)",
    "R(x), S(x,y), S(y,x)",
    "R(x), S(x,y), S(xp,yp), T(yp)",
]


@pytest.mark.parametrize("text", SAFE_NO_SELFJOIN)
def test_oracle_vs_bruteforce(text):
    q = parse(text)
    db = random_database_for_query(q, 2, density=0.7, seed=42)
    if db.tuple_count() > 18:
        pytest.skip("instance too large for world enumeration")
    assert lineage.probability(q, db) == pytest.approx(
        brute.probability(q, db), abs=1e-10
    )


@pytest.mark.parametrize("text", SAFE_NO_SELFJOIN)
@pytest.mark.parametrize("seed", range(3))
def test_plan_vs_oracle(text, seed):
    q = parse(text)
    db = random_database_for_query(q, 3, density=0.5, seed=seed)
    assert plan.probability(q, db) == pytest.approx(
        lineage.probability(q, db), abs=1e-9
    )


@pytest.mark.parametrize("text", SAFE_SELFJOIN)
@pytest.mark.parametrize("seed", range(3))
def test_lifted_vs_oracle(text, seed):
    q = parse(text)
    db = random_database_for_query(q, 3, density=0.5, seed=seed)
    assert lifted.probability(q, db) == pytest.approx(
        lineage.probability(q, db), abs=1e-9
    )


@pytest.mark.parametrize("text", UNSAFE)
def test_unsafe_oracle_vs_bruteforce(text):
    q = parse(text)
    db = random_database_for_query(q, 2, density=0.6, seed=3)
    if db.tuple_count() > 18:
        pytest.skip("instance too large for world enumeration")
    assert lineage.probability(q, db) == pytest.approx(
        brute.probability(q, db), abs=1e-10
    )


@pytest.mark.parametrize("text", SAFE_NO_SELFJOIN + SAFE_SELFJOIN + UNSAFE)
def test_router_always_close_to_oracle(text):
    q = parse(text)
    db = random_database_for_query(q, 3, density=0.5, seed=9)
    router = RouterEngine(mc_samples=40_000, mc_seed=5)
    p_router = router.probability(q, db)
    p_exact = lineage.probability(q, db)
    tolerance = 1e-9 if router.history[-1].safe else 0.05
    assert p_router == pytest.approx(p_exact, abs=tolerance)


# ----------------------------------------------------------------------
# CompiledEngine: both circuit backends must match the WMC oracle
# ----------------------------------------------------------------------

ALL_QUERIES = SAFE_NO_SELFJOIN + SAFE_SELFJOIN + UNSAFE


@pytest.mark.parametrize("mode", ["obdd", "dnnf"])
@pytest.mark.parametrize("text", ALL_QUERIES)
@pytest.mark.parametrize("seed", range(3))
def test_compiled_vs_oracle_random_sweep(mode, text, seed):
    """Property-style sweep: compiled circuits agree with the oracle."""
    q = parse(text)
    db = random_database_for_query(q, 3, density=0.5, seed=seed)
    engine = CompiledEngine(mode=mode)
    want = exact_probability(ground_lineage(q, db))
    assert engine.probability(q, db) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("mode", ["obdd", "dnnf"])
@pytest.mark.parametrize("entry", zoo(), ids=lambda entry: entry.name)
def test_compiled_vs_oracle_on_zoo(mode, entry):
    """Every zoo query: CompiledEngine matches the oracle to 1e-9.

    Grounding/compilation is cheap even for entries whose *analysis*
    is slow, so the whole zoo is covered, over several instances.
    """
    engine = CompiledEngine(mode=mode)
    for domain, density, seed in ((2, 0.8, 7), (3, 0.5, 11)):
        db = random_database_for_query(
            entry.query, domain, density=density, seed=seed
        )
        want = exact_probability(ground_lineage(entry.query, db))
        assert engine.probability(entry.query, db) == pytest.approx(
            want, abs=1e-9
        )


@pytest.mark.parametrize("ordering", ["lineage", "hierarchy", "auto"])
def test_compiled_obdd_orderings_agree(ordering):
    q = parse("R(x), S(x,y), T(y)")
    db = random_database_for_query(q, 4, density=0.5, seed=13)
    engine = CompiledEngine(mode="obdd", ordering=ordering)
    want = exact_probability(ground_lineage(q, db))
    assert engine.probability(q, db) == pytest.approx(want, abs=1e-9)


def test_compiled_engine_reuses_cached_circuit():
    q = parse("R(x), S(x,y), T(y)")
    db = random_database_for_query(q, 3, density=0.5, seed=4)
    engine = CompiledEngine()
    engine.probability(q, db)
    assert not engine.last_report.cached
    engine.probability(q, db)
    assert engine.last_report.cached
    assert engine.cache.hits == 1


def test_probabilities_in_unit_interval():
    for text in SAFE_NO_SELFJOIN + SAFE_SELFJOIN + UNSAFE:
        q = parse(text)
        db = random_database_for_query(q, 3, density=0.5, seed=1)
        p = lineage.probability(q, db)
        assert 0.0 <= p <= 1.0
