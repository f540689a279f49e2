"""Tests for grounding, lineage construction, and exact WMC."""

import pytest

from repro.core import parse
from repro.db import ProbabilisticDatabase
from repro.lineage import (
    exact_probability,
    find_matches,
    ground_lineage,
    make_lineage,
    query_holds,
    shannon_expansion_count,
)
from repro.core.terms import Variable


@pytest.fixture
def star_db():
    return ProbabilisticDatabase.from_dict(
        {
            "R": {(1,): 0.5, (2,): 0.3},
            "S": {(1, 10): 0.4, (1, 11): 0.6, (2, 10): 0.9},
        }
    )


def _named(matches):
    """Matches as ``{variable name: value}`` dicts in a fixed order."""
    return sorted(({v.name: x for v, x in m.items()} for m in matches), key=repr)


class TestMatching:
    def test_find_matches(self, star_db):
        matches = find_matches(parse("R(x), S(x,y)"), star_db)
        assert len(matches) == 3
        assert {m[Variable("x")] for m in matches} == {1, 2}

    def test_constants_filter(self, star_db):
        matches = find_matches(parse("S(1, y)"), star_db)
        assert len(matches) == 2

    def test_predicates_filter(self, star_db):
        matches = find_matches(parse("S(x, y), y < 11"), star_db)
        assert len(matches) == 2

    def test_join_filter_and_constant_matches_are_exact(self, star_db):
        expected = {
            "R(x), S(x,y)": [
                {"x": 1, "y": 10}, {"x": 1, "y": 11}, {"x": 2, "y": 10},
            ],
            "S(x,y), y < 11": [{"x": 1, "y": 10}, {"x": 2, "y": 10}],
            "S(1, y)": [{"y": 10}, {"y": 11}],
        }
        for text, matches in expected.items():
            assert _named(find_matches(parse(text), star_db)) == matches

    def test_query_holds(self, star_db):
        assert query_holds(parse("R(x), S(x,y)"), star_db)
        assert not query_holds(parse("R(x), S(x, 99)"), star_db)

    def test_negated_only_variable_rejected(self, star_db):
        with pytest.raises(ValueError):
            find_matches(parse("R(x), not S(y, z)"), star_db)

    def test_self_join_matching(self):
        db = ProbabilisticDatabase.from_dict(
            {"E": {(1, 2): 0.5, (2, 3): 0.5, (3, 1): 0.5}}
        )
        matches = find_matches(parse("E(x,y), E(y,z)"), db)
        assert len(matches) == 3

    def test_self_join_on_a_path_matches_once(self):
        db = ProbabilisticDatabase.from_dict({"E": {(1, 2): 0.5, (2, 3): 0.5}})
        matches = find_matches(parse("E(x,y), E(y,z)"), db)
        assert _named(matches) == [{"x": 1, "y": 2, "z": 3}]

    def test_int_and_str_values_stay_distinct(self):
        db = ProbabilisticDatabase.from_dict(
            {"R": {(1, "a"): 0.5, ("1", "b"): 0.5}}
        )
        matches = find_matches(parse("R(x,y)"), db)
        assert _named(matches) == [{"x": "1", "y": "b"}, {"x": 1, "y": "a"}]

    def test_empty_relation_matches_nothing(self):
        db = ProbabilisticDatabase()
        db.relation("R")
        assert find_matches(parse("R(1)"), db) == []

    def test_negated_ground_atom_alone_matches_trivially(self):
        # Negated sub-goals filter nothing at match time: the lineage
        # carries them, so the lone match is the empty assignment.
        db = ProbabilisticDatabase.from_dict({"R": {(1,): 0.5}})
        assert find_matches(parse("not R(1)"), db) == [{}]


class TestLineage:
    def test_clause_structure(self, star_db):
        lineage = ground_lineage(parse("R(x), S(x,y)"), star_db)
        assert lineage.clause_count() == 3
        assert all(len(clause) == 2 for clause in lineage.clauses)

    def test_certain_tuples_dropped_from_clauses(self):
        db = ProbabilisticDatabase.from_dict(
            {"R": {(1,): 1}, "S": {(1, 2): 0.5}}
        )
        lineage = ground_lineage(parse("R(x), S(x,y)"), db)
        assert lineage.clause_count() == 1
        (clause,) = lineage.clauses
        assert len(clause) == 1  # only the uncertain S tuple

    def test_certainly_true(self):
        db = ProbabilisticDatabase.from_dict({"R": {(1,): 1}})
        lineage = ground_lineage(parse("R(x)"), db)
        assert lineage.certainly_true
        assert exact_probability(lineage) == 1.0

    def test_false(self):
        db = ProbabilisticDatabase.from_dict({"R": {(1,): 0.5}})
        lineage = ground_lineage(parse("R(9)"), db)
        assert lineage.is_false
        assert exact_probability(lineage) == 0.0

    def test_absorption(self):
        # (A) ∨ (A ∧ B) simplifies to (A).
        lineage = make_lineage(
            [
                [(("R", (1,)), True)],
                [(("R", (1,)), True), (("R", (2,)), True)],
            ],
            {("R", (1,)): 0.5, ("R", (2,)): 0.5},
        )
        assert lineage.clause_count() == 1

    def test_contradictory_clause_dropped(self):
        lineage = make_lineage(
            [[(("R", (1,)), True), (("R", (1,)), False)]],
            {("R", (1,)): 0.5},
        )
        assert lineage.is_false

    def test_negated_subgoals(self):
        db = ProbabilisticDatabase.from_dict(
            {"R": {(1,): 0.5}, "S": {(1,): 0.4}}
        )
        lineage = ground_lineage(parse("R(x), not S(x)"), db)
        p = exact_probability(lineage)
        assert p == pytest.approx(0.5 * 0.6)

    def test_negated_absent_tuple_is_free(self):
        db = ProbabilisticDatabase.from_dict({"R": {(1,): 0.5}})
        db.relation("S")
        lineage = ground_lineage(parse("R(x), not S(x)"), db)
        assert exact_probability(lineage) == pytest.approx(0.5)

    def test_negated_certain_tuple_kills_match(self):
        db = ProbabilisticDatabase.from_dict(
            {"R": {(1,): 0.5}, "S": {(1,): 1}}
        )
        lineage = ground_lineage(parse("R(x), not S(x)"), db)
        assert exact_probability(lineage) == 0.0


class TestWMC:
    def test_independent_or(self):
        lineage = make_lineage(
            [[(("R", (1,)), True)], [(("R", (2,)), True)]],
            {("R", (1,)): 0.5, ("R", (2,)): 0.5},
        )
        assert exact_probability(lineage) == pytest.approx(0.75)

    def test_shared_variable_conditioning(self):
        # (A ∧ B) ∨ (A ∧ C): p = pA (1 - (1-pB)(1-pC))
        a, b, c = ("R", (1,)), ("R", (2,)), ("R", (3,))
        lineage = make_lineage(
            [[(a, True), (b, True)], [(a, True), (c, True)]],
            {a: 0.5, b: 0.4, c: 0.8},
        )
        expected = 0.5 * (1 - 0.6 * 0.2)
        assert exact_probability(lineage) == pytest.approx(expected)

    def test_against_formula(self, star_db):
        p = exact_probability(ground_lineage(parse("R(x), S(x,y)"), star_db))
        expected = 1 - (1 - 0.5 * (1 - 0.6 * 0.4)) * (1 - 0.3 * 0.9)
        assert p == pytest.approx(expected)

    def test_expansion_count_zero_for_independent(self, star_db):
        lineage = ground_lineage(parse("R(x)"), star_db)
        assert shannon_expansion_count(lineage) == 0

    def test_mixed_polarity(self):
        a = ("R", (1,))
        lineage = make_lineage(
            [[(a, True)], [(a, False)]], {a: 0.3}
        )
        assert exact_probability(lineage) == pytest.approx(1.0)
