"""Parity and agreement tests for the vectorized sampling core.

Three layers of evidence that the batched sampler computes the same
estimators as the scalar loops kept below as the oracle
(:class:`ScalarKarpLuby`, :func:`scalar_naive_estimate`):

* **draw-for-draw parity** — the packed clause evaluation and the
  Karp–Luby coverage indicator are re-derived in pure python over the
  *same* sampled matrices and must match exactly, sample by sample,
  and the raw-word world draw matches numpy's float32 uniform draw
  cell for cell;
* **statistical agreement** — the sampler and the oracle land within
  their 95% intervals of the exact WMC probability across the paper's
  query zoo and random instances, and the intervals cover it at their
  stated rate;
* **plumbing** — clamping on the answers path, and the batched circuit
  evaluator against its scalar counterpart.
"""

import bisect
import itertools
import random

import numpy as np
import pytest

from repro.compile import compile_dnnf, compile_obdd, probability_batch
from repro.core import parse
from repro.db import random_database_for_query
from repro.engines import MonteCarloEngine, CompiledEngine
from repro.engines.montecarlo import (
    KarpLubySampler,
    estimate_lineage,
    naive_estimate,
)
from repro.lineage import PackedLineage, clause_sort_key, make_lineage
from repro.lineage.grounding import ground_answer_lineages, ground_lineage
from repro.lineage.wmc import exact_probability
from repro.queries.zoo import fast_entries

UNSAFE = ["R(x), S(x,y), T(y)", "R(x,y), R(y,z)", "R(x), S(x,y), S(y,x)"]


def clause_probability(clause, weights):
    """``P(clause)``: the product of its literals' marginals."""
    result = 1.0
    for key, polarity in clause:
        result *= weights[key] if polarity else 1.0 - weights[key]
    return result


class ScalarKarpLuby(KarpLubySampler):
    """The scalar Karp–Luby loop, the oracle for the batched sampler.

    One trial at a time: pick a clause by bisecting the cumulative
    clause probabilities, force it true, then draw the events of the
    earlier clauses lazily from ``rng`` until one holds.  Clauses come
    in the sampler's order (:func:`clause_sort_key`); the estimate and
    interval arithmetic are the sampler's own.  The lazy draws follow
    frozenset iteration order, so a seeded run's digits depend on
    ``PYTHONHASHSEED``.
    """

    def __init__(self, lineage, rng):
        self.rng = rng
        self.hits = 0
        self.drawn = 0
        self.weights = lineage.weights
        self.clauses = sorted(lineage.clauses, key=clause_sort_key)
        self.cumulative = list(itertools.accumulate(
            clause_probability(clause, self.weights) for clause in self.clauses
        ))
        self.total = self.cumulative[-1] if self.cumulative else 0.0

    def extend(self, samples):
        if self.total > 0.0:
            for _ in range(samples):
                self.hits += self._trial()
        self.drawn += samples

    def _trial(self):
        """One trial: is the chosen clause the first that holds?"""
        pick = self.rng.random() * self.total
        chosen = min(
            bisect.bisect_left(self.cumulative, pick), len(self.clauses) - 1
        )
        world = dict(self.clauses[chosen])
        return not any(
            self._holds(clause, world) for clause in self.clauses[:chosen]
        )

    def _holds(self, clause, world):
        for key, polarity in clause:
            if key not in world:
                world[key] = self.rng.random() < self.weights[key]
            if world[key] != polarity:
                return False
        return True


def scalar_naive_estimate(lineage, samples, rng):
    """The oracle for :func:`naive_estimate`: one world at a time."""
    events = sorted(lineage.events(), key=str)
    hits = 0
    for _ in range(samples):
        world = {
            event: rng.random() < lineage.weights[event] for event in events
        }
        hits += any(
            all(world[key] == polarity for key, polarity in clause)
            for clause in lineage.clauses
        )
    return hits / samples


def small_lineage(seed=3, domain=4):
    q = parse("R(x), S(x,y), T(y)")
    db = random_database_for_query(q, domain, density=0.5, seed=seed)
    return ground_lineage(q, db)


def many_clause_lineage():
    """22 clauses over 33 events: enough clauses that a Karp–Luby trial
    can miss, so a coverage bug changes the hit count (on a one-clause
    lineage every trial is a hit, whatever the kernel computes)."""
    q = parse("R(x), S(x,y), T(y)")
    db = random_database_for_query(q, 6, density=0.8, seed=1)
    return ground_lineage(q, db)


def mixed_polarity_lineage():
    """Clauses with negated literals, whose packed padding bits come
    out set: a count over whole bytes would read them as hits."""
    rng = random.Random(3)
    weights = {("E", (i,)): rng.uniform(0.2, 0.8) for i in range(12)}
    keys = list(weights)
    clauses = [
        [(keys[i], rng.random() < 0.5) for i in rng.sample(range(12), 3)]
        for _ in range(10)
    ]
    return make_lineage(clauses, weights)


#: Draw-for-draw batch sizes; neither is a multiple of 8, so the last
#: packed byte carries padding bits.
BATCHES = (300, 301)


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


def reference_hits(packed, worlds, chosen):
    """Scalar Karp–Luby coverage: no clause before the chosen one holds."""
    satisfied = reference_satisfaction(packed, worlds)
    hits = 0
    for s, clause in enumerate(chosen):
        # The forced clause must hold in its own world.
        assert satisfied[clause, s]
        if not satisfied[:clause, s].any():
            hits += 1
    return hits


def unpacked(bits, batch):
    """The ``(rows, batch)`` bool matrix behind packed bit rows."""
    return np.unpackbits(bits, axis=1, count=batch).astype(bool)


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
        scalar = ScalarKarpLuby(lineage, random.Random(0))
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
            unpacked(packed.satisfied_bits(worlds), 64),
            reference_satisfaction(packed, worlds),
        )


#: Marginals at and next to the ends of [0, 1]; float32(1 - 1e-12) is 1.0.
EXTREME_MARGINALS = (0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0)


def extreme_lineage():
    weights = {("R", (i,)): p for i, p in enumerate(EXTREME_MARGINALS)}
    return make_lineage([[(key, True)] for key in weights], weights)


class TestWorldDraw:
    """Worlds are raw 32-bit generator words compared against one
    integer threshold per event."""

    def test_thresholds_are_smallest_words_reaching_the_marginal(self):
        # numpy's float32 uniform of a word w is (w >> 8) * 2^-24, and
        # a cell is true when that uniform is below float32(p): the
        # threshold is the smallest w whose uniform is not.
        packed = PackedLineage.of(extreme_lineage())
        for event, threshold in zip(packed.events, packed.thresholds):
            p32 = float(np.float32(packed.weights[packed.event_index[event]]))
            if p32 == 1.0:
                # No 32-bit word reaches 1.0: the row is always true.
                assert packed.event_index[event] in packed.certain_events
                continue
            w = int(threshold)
            assert (w >> 8) * 2.0**-24 >= p32
            assert w == 0 or ((w - 1) >> 8) * 2.0**-24 < p32
        assert packed.n_events == len(EXTREME_MARGINALS)
        assert len(packed.certain_events) == 2  # 1 - 1e-12 and 1

    def test_marginal_zero_never_and_one_always(self):
        packed = PackedLineage.of(extreme_lineage())
        worlds = packed.sample_worlds(np.random.default_rng(2), 301)
        rows = {
            packed.weights[i]: worlds[i] for i in range(packed.n_events)
        }
        assert not rows[0.0].any()
        assert rows[1.0].all()
        assert rows[1.0 - 1e-12].all()

    @pytest.mark.parametrize("batch", BATCHES)
    def test_worlds_match_float32_uniform_draw(self, batch):
        # Cell for cell the matrix rng.random(dtype=float32) <
        # float32(p) — so a fixed seed keeps its estimates' digits.
        # With an even cell count both draws also leave the generator
        # in the same place; with an odd one the raw draw drops the
        # last word's high half.
        packed = PackedLineage.of(many_clause_lineage())
        drawn = np.random.default_rng(7)
        worlds = packed.sample_worlds(drawn, batch)
        reference = np.random.default_rng(7)
        uniforms = reference.random((packed.n_events, batch), dtype=np.float32)
        expected = uniforms < packed.weights.astype(np.float32)[:, None]
        assert np.array_equal(worlds, expected)
        if packed.n_events * batch % 2 == 0:
            assert np.array_equal(drawn.random(8), reference.random(8))


class TestDrawForDrawParity:
    def test_naive_clause_evaluation(self):
        for lineage in (many_clause_lineage(), mixed_polarity_lineage()):
            packed = PackedLineage.of(lineage)
            for batch in BATCHES:
                worlds = packed.sample_worlds(np.random.default_rng(12), batch)
                assert np.array_equal(
                    unpacked(packed.satisfied_bits(worlds), batch),
                    reference_satisfaction(packed, worlds),
                )
                # The naive estimator counts the worlds where any clause
                # holds, over the same draw.
                seed = random.Random(4).randrange(2**63)
                worlds = packed.sample_worlds(np.random.default_rng(seed), batch)
                hits = int(
                    reference_satisfaction(packed, worlds).any(axis=0).sum()
                )
                assert 0 < hits < batch
                assert naive_estimate(
                    lineage, batch, random.Random(4)
                ) == hits / batch

    def test_karp_luby_coverage_indicator(self):
        lineage = many_clause_lineage()
        for batch in BATCHES:
            sampler = KarpLubySampler(lineage, random.Random(5))
            chosen, worlds = sampler._draw_batch(batch)
            packed = sampler.packed
            assert packed.n_clauses >= 10
            hits = reference_hits(packed, worlds, chosen)
            assert 0 < hits < batch
            assert packed.coverage_hits(worlds, chosen) == hits

    def test_extend_equals_manual_batches(self):
        lineage = many_clause_lineage()
        for batch in BATCHES:
            auto = KarpLubySampler(lineage, random.Random(9))
            auto.extend(batch)
            manual = KarpLubySampler(lineage, random.Random(9))
            chosen, worlds = manual._draw_batch(batch)
            assert manual.packed.n_clauses >= 10
            hits = reference_hits(manual.packed, worlds, chosen)
            assert 0 < hits < batch
            assert auto.hits == hits


class TestArenaKernels:
    """The kernels the sampler runs batch after batch.  They once
    wrote into a reusable buffer arena; with one allocating path left,
    the checks are that the clause evaluation leaves its world matrix
    untouched and that ``extend()`` consumes the generator stream
    exactly like a bare ``_draw_batch()``."""

    def test_arena_satisfaction_equal(self):
        packed = PackedLineage.of(small_lineage())
        worlds = packed.sample_worlds(np.random.default_rng(11), 256)
        before = worlds.copy()
        bits = packed.satisfied_bits(worlds)
        assert np.array_equal(
            unpacked(bits, 256), reference_satisfaction(packed, worlds)
        )
        # The in-place polarity XOR and complement act on a gathered
        # copy: the input is unchanged and a second call agrees.
        assert np.array_equal(worlds, before)
        assert np.array_equal(packed.satisfied_bits(worlds), bits)

    def test_extend_with_arena_matches_no_arena_draws(self):
        lineage = small_lineage()
        extended = KarpLubySampler(lineage, random.Random(21))
        extended.extend(500)
        bare = KarpLubySampler(lineage, random.Random(21))
        chosen, worlds = bare._draw_batch(500)
        hits = reference_hits(bare.packed, worlds, chosen)
        assert bare.packed.coverage_hits(worlds, chosen) == hits
        assert extended.hits == hits


class TestStatisticalAgreement:
    @pytest.mark.parametrize(
        "entry", fast_entries(), ids=lambda entry: entry.name
    )
    def test_zoo_within_interval(self, entry):
        db = random_database_for_query(entry.query, 3, density=0.5, seed=11)
        lineage = ground_lineage(entry.query, db)
        if lineage.certainly_true or lineage.is_false:
            want = 1.0 if lineage.certainly_true else 0.0
            mc = MonteCarloEngine(samples=10, seed=0)
            assert mc.probability(entry.query, db) == want
            return
        exact = exact_probability(lineage)
        for sampler_type in (ScalarKarpLuby, KarpLubySampler):
            sampler = sampler_type(lineage, random.Random(13))
            sampler.extend(3000)
            estimate, half_width = sampler.interval()
            assert abs(estimate - exact) <= max(3 * half_width, 0.02), (
                f"{entry.name}[{sampler_type.__name__}]: "
                f"{estimate} vs exact {exact}"
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
        for sampler_type, naive_type in (
            (ScalarKarpLuby, scalar_naive_estimate),
            (KarpLubySampler, naive_estimate),
        ):
            sampler = sampler_type(lineage, random.Random(17))
            sampler.extend(4000)
            estimate, half_width = sampler.interval()
            assert abs(estimate - exact) <= max(3 * half_width, 0.02)
            naive = naive_type(lineage, 4000, random.Random(17))
            assert abs(naive - exact) <= 0.05

    def test_backends_agree_with_each_other(self):
        lineage = small_lineage(seed=8, domain=5)
        exact = exact_probability(lineage)
        samplers = [
            sampler_type(lineage, random.Random(3))
            for sampler_type in (ScalarKarpLuby, KarpLubySampler)
        ]
        for sampler in samplers:
            sampler.extend(20_000)
        values = [s.estimate() for s in samplers]
        assert values[0] == pytest.approx(exact, abs=0.02)
        assert values[1] == pytest.approx(exact, abs=0.02)


class TestIntervalCalibration:
    """Karp–Luby's 95% interval covers the exact value at its stated
    rate, at 2,000 samples (the overload clamp's budget)."""

    @pytest.mark.parametrize("text", UNSAFE)
    def test_interval_covers_exact_value(self, text):
        q = parse(text)
        db = random_database_for_query(q, 4, density=0.8, seed=1)
        lineage = ground_lineage(q, db)
        assert lineage.clause_count() >= 5
        exact = exact_probability(lineage)
        covered = 0
        for seed in range(400):
            estimate, half_width = estimate_lineage(lineage, 2_000, seed)
            covered += abs(estimate - exact) <= half_width
        assert covered >= 360, f"{text}: {covered}/400 intervals cover"


class TestBackendPlumbing:
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
            raw = ScalarKarpLuby(lineage, random.Random(seed))
            raw.extend(5)
            saw_overshoot = saw_overshoot or raw.estimate() > 1.0
        assert saw_overshoot, "test instance never overshoots; weaken it"
        for seed in range(25):
            mc = MonteCarloEngine(samples=5, seed=seed)
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
