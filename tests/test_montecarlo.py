"""Tests for the Monte Carlo estimators and the router."""

import pytest

from repro.core import parse
from repro.db import ProbabilisticDatabase, random_database_for_query
from repro.engines import (
    LineageEngine,
    MonteCarloEngine,
    RouterEngine,
    estimate_lineage,
)
from repro.lineage.grounding import ground_lineage
from repro.engines.montecarlo import naive_estimate
from repro.obs.metrics import MetricsRegistry
from repro.serve import QuerySession, ServerPool, SessionConfig

lineage = LineageEngine()


@pytest.fixture
def triangle_db():
    return ProbabilisticDatabase.from_dict(
        {"R": {(1, 2): 0.5, (2, 3): 0.6, (3, 1): 0.4, (1, 3): 0.7}}
    )


class TestMonteCarlo:
    def test_karp_luby_converges(self, triangle_db):
        q = parse("R(x,y), R(y,z)")  # unsafe query
        exact = lineage.probability(q, triangle_db)
        mc = MonteCarloEngine(samples=30_000, seed=7)
        assert mc.probability(q, triangle_db) == pytest.approx(exact, abs=0.02)

    def test_trivial_cases(self):
        db = ProbabilisticDatabase.from_dict({"R": {(1,): 1}})
        mc = MonteCarloEngine(samples=10, seed=0)
        assert mc.probability(parse("R(x)"), db) == 1.0
        assert mc.probability(parse("R(9)"), db) == 0.0

    def test_error_bound_contains_truth(self, triangle_db):
        q = parse("R(x,y), R(y,z)")
        exact = lineage.probability(q, triangle_db)
        estimate, half_width = estimate_lineage(
            ground_lineage(q, triangle_db), samples=20_000, seed=3
        )
        assert abs(estimate - exact) < max(3 * half_width, 0.03)

    def test_karp_luby_small_probability(self):
        # Tiny-probability query: naive would need huge samples;
        # Karp-Luby keeps relative error bounded.
        db = ProbabilisticDatabase.from_dict(
            {"R": {(1, 2): 0.001, (2, 1): 0.001}}
        )
        q = parse("R(x,y), R(y,x)")
        exact = lineage.probability(q, db)
        mc = MonteCarloEngine(samples=20_000, seed=11)
        estimate = mc.probability(q, db)
        assert estimate == pytest.approx(exact, rel=0.2)

    def test_reconfigured_preserves_everything(self):
        registry = MetricsRegistry()
        engine = MonteCarloEngine(samples=1_000, seed=9, metrics=registry)
        clone = engine.reconfigured(samples=50)
        assert clone.samples == 50
        assert clone.seed == 9
        assert clone._registry is registry
        unchanged = engine.reconfigured()
        assert unchanged.samples == 1_000

    def test_sample_budget_override_keeps_metrics_registry(self, triangle_db):
        # The overload clamp swaps the session's sampler for a
        # reconfigured clone; its samples must still be counted.
        session = QuerySession(
            triangle_db, mc_seed=3, compile_budget=None
        )
        session.set_sample_budget(321)
        session.evaluate("R(x,y), R(y,z)")
        series = session.metrics.snapshot()["repro_mc_samples_total"]
        assert sum(series["values"].values()) == 321


class TestSeededDigits:
    """A fixed seed fixes every digit of a Monte Carlo read, in any
    process and under any ``PYTHONHASHSEED``.  The values are pinned
    with ``==``: a change that alters the sampler's draws fails here."""

    @pytest.fixture
    def chain(self):
        q = parse("R(x), S(x,y), T(y)")
        return q, random_database_for_query(q, 3, density=0.7, seed=2)

    def test_session_read(self, chain):
        q, db = chain
        session = QuerySession(db, compile_budget=0, mc_seed=5)
        assert session.evaluate(q) == 0.11681201934864864
        assert session.stats.fallbacks == 1

    def test_estimate_lineage(self, chain):
        q, db = chain
        assert estimate_lineage(ground_lineage(q, db), 20_000, 5) == (
            0.11706955985132413,
            0.0007056654229829502,
        )

    def test_headed_session_read(self):
        # Each residual R(x), S(x,y), T(y,c) is #P-hard, so with no
        # compile budget every answer is sampled.
        q = parse("Q(z) :- R(x), S(x,y), T(y,z)")
        db = random_database_for_query(q.boolean(), 3, density=0.7, seed=2)
        session = QuerySession(db, compile_budget=0, mc_seed=5)
        assert session.answers(q) == [
            ((1,), 0.14566830966517744),
            ((0,), 0.08608457364195579),
            ((2,), 0.06812376847439677),
        ]
        assert session.stats.fallbacks == 1


class TestSampleBudget:
    """A Monte Carlo budget below one sample draws nothing, so every
    entry point rejects it instead of reporting 0.0 as a probability."""

    @pytest.fixture
    def chain(self):
        q = parse("R(x), S(x,y), T(y)")
        db = random_database_for_query(q, 3, density=0.6, seed=0)
        return q, db

    @pytest.mark.parametrize("samples", [0, -5])
    def test_engine_rejects_budget_below_one(self, samples):
        with pytest.raises(ValueError, match="samples"):
            MonteCarloEngine(samples=samples)
        with pytest.raises(ValueError, match="samples"):
            MonteCarloEngine(samples=100).reconfigured(samples=samples)

    def test_router_and_session_reject_budget_below_one(self, chain):
        _q, db = chain
        with pytest.raises(ValueError, match="samples"):
            RouterEngine(compile_budget=0, mc_samples=-5)
        with pytest.raises(ValueError, match="samples"):
            QuerySession(db, mc_samples=0, compile_budget=0)
        session = QuerySession(db, compile_budget=0)
        with pytest.raises(ValueError, match="samples"):
            session.set_sample_budget(0)

    def test_session_config_rejects_budget_below_one(self):
        # Raised in the caller, before any worker is spawned.
        with pytest.raises(ValueError, match="mc_samples"):
            SessionConfig(mc_samples=0, compile_budget=0)

    def test_pool_rejects_overload_budget_below_one(self, chain):
        _q, db = chain
        with pytest.raises(ValueError, match="overload_samples"):
            ServerPool(db, workers=0, overload_samples=0)

    def test_estimate_lineage_rejects_budget_below_one(self, chain):
        q, db = chain
        with pytest.raises(ValueError, match="samples"):
            estimate_lineage(ground_lineage(q, db), -5, 1)

    def test_naive_estimate_rejects_budget_below_one(self, chain):
        import random

        q, db = chain
        with pytest.raises(ValueError, match="samples"):
            naive_estimate(ground_lineage(q, db), 0, random.Random(1))

    def test_naive_estimate_of_a_certainly_true_lineage(self):
        # An empty clause holds in every world, and the lineage keeps
        # no clause for a sampled world to satisfy.
        import random

        from repro.lineage import make_lineage

        certain = make_lineage([[]], {})
        assert certain.certainly_true
        assert naive_estimate(certain, 1000, random.Random(1)) == 1.0
        assert estimate_lineage(certain, 1000, 1) == (1.0, 0.0)

    @pytest.mark.parametrize("samples", ["0", "-5"])
    @pytest.mark.parametrize("command", ["evaluate", "answers", "serve"])
    def test_cli_samples_flag_rejects_budget_below_one(
        self, tmp_path, capsys, command, samples
    ):
        import json

        from repro.cli import main

        path = tmp_path / "db.json"
        path.write_text(json.dumps({"R": [[[1], 0.5]]}))
        requests = tmp_path / "requests.json"
        requests.write_text(json.dumps([{"op": "evaluate", "query": "R(x)"}]))
        argv = {
            "evaluate": ["evaluate", "R(x)", str(path)],
            "answers": ["answers", "Q(x) :- R(x)", str(path)],
            "serve": ["serve", str(path), "--requests", str(requests)],
        }[command]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--samples", samples])
        assert exit_info.value.code == 2
        assert "positive integer" in capsys.readouterr().err


class TestRouter:
    def test_routes_safe_to_plan(self):
        router = RouterEngine(mc_seed=1)
        q = parse("R(x), S(x,y)")
        db = random_database_for_query(q, 3, seed=0)
        p = router.probability(q, db)
        assert router.history[-1].engine == "safe-plan"
        assert router.history[-1].safe
        assert p == pytest.approx(lineage.probability(q, db), abs=1e-9)

    def test_routes_selfjoin_safe_to_lifted(self):
        router = RouterEngine(mc_seed=1)
        q = parse("R(x,y), R(y,x)")
        db = random_database_for_query(q, 3, seed=0)
        p = router.probability(q, db)
        assert router.history[-1].engine == "lifted"
        assert p == pytest.approx(lineage.probability(q, db), abs=1e-9)

    def test_routes_unsafe_to_compiled(self):
        router = RouterEngine(mc_samples=5_000, mc_seed=1)
        q = parse("R(x), S(x,y), T(y)")
        db = random_database_for_query(q, 3, density=0.8, seed=0)
        p = router.probability(q, db)
        decision = router.history[-1]
        assert decision.engine == "compiled"
        assert not decision.safe
        assert "#P-hard" in decision.fallback_reason or "safe plan" in decision.fallback_reason
        assert p == pytest.approx(lineage.probability(q, db), abs=1e-9)

    def test_routes_unsafe_to_monte_carlo_without_compiler(self):
        router = RouterEngine(mc_samples=5_000, mc_seed=1, compile_budget=None)
        q = parse("R(x), S(x,y), T(y)")
        db = random_database_for_query(q, 3, seed=0)
        p = router.probability(q, db)
        decision = router.history[-1]
        assert decision.engine == "monte-carlo"
        assert not decision.safe
        assert decision.fallback_reason
        assert p == pytest.approx(lineage.probability(q, db), abs=0.05)

    def test_tiny_compile_budget_falls_through_to_monte_carlo(self):
        router = RouterEngine(mc_samples=40_000, mc_seed=1, compile_budget=1)
        q = parse("R(x), S(x,y), T(y)")
        db = random_database_for_query(q, 3, density=0.8, seed=0)
        p = router.probability(q, db)
        decision = router.history[-1]
        assert decision.engine == "monte-carlo"
        assert "budget" in decision.fallback_reason
        assert p == pytest.approx(lineage.probability(q, db), abs=0.05)

    def test_exact_fallback(self):
        router = RouterEngine(exact_fallback=True, compile_budget=None)
        q = parse("R(x,y), R(y,z)")
        db = random_database_for_query(q, 3, seed=2)
        p = router.probability(q, db)
        assert router.history[-1].engine == "lineage-wmc"
        assert p == pytest.approx(lineage.probability(q, db), abs=1e-9)

    def test_safety_cache(self):
        router = RouterEngine()
        q = parse("R(x,y), R(y,x)")
        assert router.is_safe(q)
        assert router.is_safe(q)  # second call hits the cache
        assert len(router._safety_cache) == 1
