"""Tests for the Equation (3) safe-plan engine."""

import pytest

from repro.core import parse
from repro.db import ProbabilisticDatabase, random_database_for_query
from repro.engines import (
    BruteForceEngine,
    LineageEngine,
    SafePlanEngine,
    UnsupportedQueryError,
)

plan = SafePlanEngine()
brute = BruteForceEngine()
lineage = LineageEngine()


class TestPreconditions:
    def test_rejects_self_join(self):
        db = ProbabilisticDatabase()
        with pytest.raises(UnsupportedQueryError):
            plan.probability(parse("R(x,y), R(y,z)"), db)

    def test_rejects_non_hierarchical(self):
        db = ProbabilisticDatabase()
        with pytest.raises(UnsupportedQueryError):
            plan.probability(parse("R(x), S(x,y), T(y)"), db)


class TestEquationThree:
    def test_closed_form_qhier(self):
        # p(q) = 1 - Π_a (1 - p(R(a)) (1 - Π_b (1 - p(S(a,b)))))
        db = ProbabilisticDatabase.from_dict(
            {
                "R": {(1,): 0.5, (2,): 0.3},
                "S": {(1, 10): 0.4, (1, 11): 0.6, (2, 10): 0.9},
            }
        )
        q = parse("R(x), S(x,y)")
        expected = 1 - (1 - 0.5 * (1 - 0.6 * 0.4)) * (1 - 0.3 * 0.9)
        assert plan.probability(q, db) == pytest.approx(expected)

    def test_ground_query(self):
        db = ProbabilisticDatabase.from_dict({"R": {(1,): 0.5}, "S": {(2,): 0.4}})
        assert plan.probability(parse("R(1), S(2)"), db) == pytest.approx(0.2)
        assert plan.probability(parse("R(9)"), db) == 0.0

    def test_repeated_ground_atom_counts_once(self):
        db = ProbabilisticDatabase.from_dict({"R": {(1,): 0.5}})
        assert plan.probability(parse("R(1), R(1)"), db) == pytest.approx(0.5)

    def test_unsatisfiable_predicates(self):
        db = ProbabilisticDatabase.from_dict({"R": {(1, 2): 1.0}})
        assert plan.probability(parse("R(x,y), x < y, y < x"), db) == 0.0

    def test_independent_components_multiply(self):
        db = ProbabilisticDatabase.from_dict(
            {"R": {(1,): 0.5}, "T": {(7,): 0.25}}
        )
        assert plan.probability(parse("R(x), T(y)"), db) == pytest.approx(0.125)

    def test_negated_ground_subgoal(self):
        db = ProbabilisticDatabase.from_dict({"R": {(1,): 0.5}, "S": {(1,): 0.4}})
        assert plan.probability(parse("R(x), not S(1)"), db) == pytest.approx(
            0.5 * 0.6
        )

    def test_string_values(self):
        db = ProbabilisticDatabase.from_dict(
            {"R": {("a",): 0.5}, "S": {("a", "b"): 0.4}}
        )
        assert plan.probability(parse("R(x), S(x,y)"), db) == pytest.approx(0.2)

    def test_predicates_restrict_matches(self):
        db = ProbabilisticDatabase.from_dict(
            {"S": {(1, 10): 0.5, (1, 20): 0.5}}
        )
        q = parse("S(x, y), y < 15")
        assert plan.probability(q, db) == pytest.approx(0.5)


class TestAgreement:
    @pytest.mark.parametrize(
        "text",
        [
            "R(x), S(x,y)",
            "R(x), S(x,y), T(x,y,z)",
            "R(x,y), S(y)",
            "R(x), S(x,y), U(v)",
            "R(x), S(x,y), x < y",
        ],
    )
    def test_matches_oracles(self, text):
        q = parse(text)
        for seed in range(3):
            db = random_database_for_query(q, 3, density=0.5, seed=seed)
            p_plan = plan.probability(q, db)
            p_lineage = lineage.probability(q, db)
            assert p_plan == pytest.approx(p_lineage, abs=1e-10)

    def test_matches_bruteforce_small(self):
        q = parse("R(x), S(x,y)")
        db = random_database_for_query(q, 2, density=0.8, seed=1)
        assert plan.probability(q, db) == pytest.approx(
            brute.probability(q, db), abs=1e-10
        )
