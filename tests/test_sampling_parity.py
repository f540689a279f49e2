"""Parity and agreement tests for the vectorized sampling core.

Three layers of evidence that ``backend="numpy"`` computes the same
estimators as the scalar oracle:

* **draw-for-draw parity** — the packed clause evaluation and the
  Karp–Luby coverage indicator are re-derived in pure python over the
  *same* sampled matrices and must match exactly, sample by sample;
* **statistical agreement** — both backends land within their 95%
  intervals of the exact WMC probability across the paper's query zoo
  and random instances;
* **plumbing** — backend selection, clamping on the answers path, and
  the batched circuit evaluator against its scalar counterpart.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.compile import compile_dnnf, compile_obdd, probability_batch
from repro.core import parse
from repro.db import random_database_for_query
from repro.engines import MonteCarloEngine, CompiledEngine
from repro.engines.montecarlo import (
    KarpLubySampler,
    naive_estimate,
    resolve_backend,
)
from repro.lineage import PackedLineage, make_lineage
from repro.lineage.grounding import ground_answer_lineages, ground_lineage
from repro.lineage.wmc import exact_probability
from repro.queries.zoo import fast_entries

UNSAFE = ["R(x), S(x,y), T(y)", "R(x,y), R(y,z)", "R(x), S(x,y), S(y,x)"]


def small_lineage(seed=3, domain=4):
    q = parse("R(x), S(x,y), T(y)")
    db = random_database_for_query(q, domain, density=0.5, seed=seed)
    return ground_lineage(q, db)


def reference_satisfaction(packed, worlds):
    """Scalar re-evaluation of the CSR clauses over a world matrix."""
    n_samples = worlds.shape[1]
    out = []
    for c in range(packed.n_clauses):
        lo, hi = packed.clause_starts[c], packed.clause_starts[c + 1]
        row = []
        for s in range(n_samples):
            row.append(all(
                bool(worlds[packed.literal_events[i], s])
                == bool(packed.literal_polarities[i])
                for i in range(lo, hi)
            ))
        out.append(row)
    return np.array(out, dtype=bool)


class TestPackedStructure:
    def test_csr_matches_lineage(self):
        lineage = small_lineage()
        packed = PackedLineage.of(lineage)
        assert packed.n_clauses == lineage.clause_count()
        assert packed.n_literals == lineage.literal_count()
        assert packed.n_events == lineage.variable_count
        for event, idx in packed.event_index.items():
            assert packed.weights[idx] == lineage.weights[event]
        # Clause probabilities match the scalar products.
        scalar = KarpLubySampler(lineage, random.Random(0), "python")
        assert packed.total == pytest.approx(scalar.total, rel=1e-12)
        for c, clause in enumerate(scalar.clauses):
            want = 1.0
            for key, polarity in clause:
                w = lineage.weights[key]
                want *= w if polarity else 1.0 - w
            assert packed.clause_probs[c] == pytest.approx(want, rel=1e-9)

    def test_cached_on_lineage(self):
        lineage = small_lineage()
        assert PackedLineage.of(lineage) is PackedLineage.of(lineage)

    def test_padding_repeats_own_literal(self):
        # Mixed clause lengths: padding must not change satisfaction.
        weights = {("R", (i,)): 0.5 for i in range(4)}
        lineage = make_lineage(
            [
                [(("R", (0,)), True)],
                [(("R", (1,)), True), (("R", (2,)), False), (("R", (3,)), True)],
            ],
            weights,
        )
        packed = PackedLineage.of(lineage)
        assert packed.padded_width == 3
        worlds = packed.sample_worlds(np.random.default_rng(0), 64)
        assert np.array_equal(
            packed.clause_satisfaction(worlds),
            reference_satisfaction(packed, worlds),
        )


class TestDrawForDrawParity:
    def test_naive_clause_evaluation(self):
        lineage = small_lineage()
        packed = PackedLineage.of(lineage)
        worlds = packed.sample_worlds(np.random.default_rng(12), 200)
        assert np.array_equal(
            packed.clause_satisfaction(worlds),
            reference_satisfaction(packed, worlds),
        )

    def test_karp_luby_coverage_indicator(self):
        lineage = small_lineage()
        sampler = KarpLubySampler(lineage, random.Random(5), "numpy")
        chosen, worlds = sampler._draw_batch(300)
        packed = sampler.packed
        satisfied = reference_satisfaction(packed, worlds)
        hits = 0
        for s in range(300):
            # The forced clause must hold in its own world.
            assert satisfied[chosen[s], s]
            if not any(satisfied[c, s] for c in range(chosen[s])):
                hits += 1
        assert packed.coverage_hits(worlds, chosen) == hits

    def test_extend_equals_manual_batches(self):
        lineage = small_lineage()
        auto = KarpLubySampler(lineage, random.Random(9), "numpy")
        auto.extend(300)
        manual = KarpLubySampler(lineage, random.Random(9), "numpy")
        chosen, worlds = manual._draw_batch(300)
        assert auto.hits == manual.packed.coverage_hits(worlds, chosen)


class TestArenaKernels:
    """The in-place arena variants must be bit-identical to the
    allocating paths: ``out=`` uniform draws consume the generator
    stream exactly like fresh allocations, and the column-fold clause
    evaluation computes the same truth table as the padded gather."""

    def test_arena_worlds_equal_fresh_alloc(self):
        from repro.lineage.packed import SampleArena

        packed = PackedLineage.of(small_lineage())
        fresh = packed.sample_worlds(np.random.default_rng(3), 128)
        arena = SampleArena()
        reused = packed.sample_worlds(
            np.random.default_rng(3), 128, arena=arena
        )
        assert np.array_equal(fresh, reused)
        # Second fill reuses the same buffers (no reallocation).
        buffer_id = id(arena.worlds)
        packed.sample_worlds(np.random.default_rng(4), 128, arena=arena)
        assert id(arena.worlds) == buffer_id

    def test_arena_satisfaction_equal(self):
        from repro.lineage.packed import SampleArena

        packed = PackedLineage.of(small_lineage())
        arena = SampleArena()
        worlds = packed.sample_worlds(
            np.random.default_rng(11), 256, arena=arena
        )
        assert np.array_equal(
            packed.clause_satisfaction(worlds, arena=arena),
            reference_satisfaction(packed, worlds),
        )

    def test_extend_with_arena_matches_no_arena_draws(self):
        lineage = small_lineage()
        with_arena = KarpLubySampler(lineage, random.Random(21), "numpy")
        with_arena.extend(500)  # extend() uses the sampler's arena
        bare = KarpLubySampler(lineage, random.Random(21), "numpy")
        chosen, worlds = bare._draw_batch(500)  # no arena: fresh arrays
        assert with_arena.hits == bare.packed.coverage_hits(worlds, chosen)

    def test_float64_worlds_same_distribution(self):
        # float32 is the default; the float64 variant exists for the
        # benchmark's precision comparison and must stay valid.
        packed = PackedLineage.of(small_lineage())
        worlds = packed.sample_worlds(
            np.random.default_rng(5), 4096, dtype=np.float64
        )
        expected = packed.weights.mean()
        assert worlds.mean() == pytest.approx(expected, abs=0.05)


class TestStatisticalAgreement:
    @pytest.mark.parametrize(
        "entry", fast_entries(), ids=lambda entry: entry.name
    )
    def test_zoo_within_interval(self, entry):
        db = random_database_for_query(entry.query, 3, density=0.5, seed=11)
        lineage = ground_lineage(entry.query, db)
        if lineage.certainly_true or lineage.is_false:
            want = 1.0 if lineage.certainly_true else 0.0
            for backend in ("python", "numpy"):
                mc = MonteCarloEngine(samples=10, seed=0, backend=backend)
                assert mc.probability(entry.query, db) == want
            return
        exact = exact_probability(lineage)
        for backend in ("python", "numpy"):
            sampler = KarpLubySampler(lineage, random.Random(13), backend)
            sampler.extend(3000)
            estimate, half_width = sampler.interval()
            assert abs(estimate - exact) <= max(3 * half_width, 0.02), (
                f"{entry.name}[{backend}]: {estimate} vs exact {exact}"
            )

    @pytest.mark.parametrize("text", UNSAFE)
    @pytest.mark.parametrize("seed", range(3))
    def test_random_instances(self, text, seed):
        q = parse(text)
        db = random_database_for_query(q, 3, density=0.6, seed=seed)
        lineage = ground_lineage(q, db)
        if lineage.certainly_true or lineage.is_false:
            return
        exact = exact_probability(lineage)
        for backend in ("python", "numpy"):
            sampler = KarpLubySampler(lineage, random.Random(17), backend)
            sampler.extend(4000)
            estimate, half_width = sampler.interval()
            assert abs(estimate - exact) <= max(3 * half_width, 0.02)
            naive = naive_estimate(
                lineage, 4000, random.Random(17), backend
            )
            assert abs(naive - exact) <= 0.05

    def test_backends_agree_with_each_other(self):
        lineage = small_lineage(seed=8, domain=5)
        exact = exact_probability(lineage)
        estimates = {
            backend: KarpLubySampler(lineage, random.Random(3), backend)
            for backend in ("python", "numpy")
        }
        for sampler in estimates.values():
            sampler.extend(20_000)
        values = [s.estimate() for s in estimates.values()]
        assert values[0] == pytest.approx(exact, abs=0.02)
        assert values[1] == pytest.approx(exact, abs=0.02)


class TestBackendPlumbing:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            MonteCarloEngine(backend="cuda")
        with pytest.raises(ValueError):
            resolve_backend("cuda")

    def test_auto_prefers_fastest_available(self):
        assert resolve_backend("auto") == "numpy"

    def test_answers_intervals_clamped(self):
        # Two independent high-probability clauses: total M = 1.8 > 1,
        # so small-sample estimates M·(hits/n) routinely exceed 1; the
        # answers path must clamp what it reports.
        weights = {("R", (1,)): 0.9, ("R", (2,)): 0.9}
        lineage = make_lineage(
            [[(("R", (1,)), True)], [(("R", (2,)), True)]], weights
        )
        saw_overshoot = False
        for seed in range(25):
            raw = KarpLubySampler(lineage, random.Random(seed), "python")
            raw.extend(5)
            saw_overshoot = saw_overshoot or raw.estimate() > 1.0
        assert saw_overshoot, "test instance never overshoots; weaken it"
        for backend in ("python", "numpy"):
            for seed in range(25):
                mc = MonteCarloEngine(samples=5, seed=seed, backend=backend)
                results = mc.answers_from_lineages({("a",): lineage})
                for _answer, value in results:
                    assert 0.0 <= value <= 1.0
                for estimate, _hw in mc.last_intervals.values():
                    assert 0.0 <= estimate <= 1.0


class TestBatchedCircuitEvaluation:
    def _random_matrix(self, events, batch, seed):
        rng = np.random.default_rng(seed)
        return rng.uniform(0.05, 0.95, size=(batch, len(events)))

    @pytest.mark.parametrize("compiler", [compile_obdd, compile_dnnf])
    def test_matches_scalar_evaluation(self, compiler):
        q = parse("R(x), S(x,y), T(y)")
        db = random_database_for_query(q, 3, density=0.7, seed=2)
        lineage = ground_lineage(q, db)
        artifact = (
            compiler(lineage, "auto", q) if compiler is compile_obdd
            else compiler(lineage, q)
        )
        events = sorted(lineage.events(), key=str)
        matrix = self._random_matrix(events, 7, seed=4)
        batched = artifact.probability_batch(events, matrix)
        assert batched.shape == (7,)
        for row in range(7):
            weights = {e: matrix[row, j] for j, e in enumerate(events)}
            assert batched[row] == pytest.approx(
                float(artifact.probability(weights)), abs=1e-12
            )

    def test_circuit_level_batch(self):
        q = parse("R(x), S(x,y)")
        db = random_database_for_query(q, 3, density=0.8, seed=6)
        lineage = ground_lineage(q, db)
        compiled = compile_dnnf(lineage, q)
        events = sorted(lineage.events(), key=str)
        matrix = self._random_matrix(events, 5, seed=1)
        values = probability_batch(
            compiled.circuit, compiled.root, events, matrix
        )
        for row in range(5):
            weights = {e: matrix[row, j] for j, e in enumerate(events)}
            assert values[row] == pytest.approx(
                float(compiled.probability(weights)), abs=1e-12
            )

    def test_compiled_answers_match_exact(self):
        q = parse("Q(x) :- R(x,y), S(y,z), T(z,x)")
        db = random_database_for_query(q.boolean(), 4, density=0.7, seed=9)
        engine = CompiledEngine()
        got = dict(engine.answers(q, db))
        want = {
            answer: exact_probability(lineage)
            for answer, lineage in ground_answer_lineages(q, db).items()
        }
        assert set(got) == set(want)
        for answer, value in got.items():
            assert value == pytest.approx(want[answer], abs=1e-9)
