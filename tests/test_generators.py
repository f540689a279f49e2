"""Tests for the random and structured database generators."""

import pytest

from repro.core import parse
from repro.db import (
    four_partite_graph,
    random_database,
    random_database_for_query,
    schema_of,
    star_join_instance,
    triangled_graph,
)


class TestGenerators:
    def test_schema_of(self):
        assert schema_of(parse("R(x), S(x,y)")) == {"R": 1, "S": 2}
        with pytest.raises(ValueError):
            schema_of(parse("R(x), R(x,y)"))

    def test_random_database_reproducible(self):
        a = random_database({"R": 2}, 4, density=0.5, seed=5)
        b = random_database({"R": 2}, 4, density=0.5, seed=5)
        assert list(a.relation("R").items()) == list(b.relation("R").items())

    def test_random_database_domain(self):
        db = random_database({"R": 1}, 3, density=1.0, seed=1)
        assert set(db.relation("R").tuples()) == {(0,), (1,), (2,)}

    def test_probability_range_respected(self):
        db = random_database({"R": 1}, 5, density=1.0, seed=1,
                             probability_range=(0.3, 0.4))
        for _row, prob in db.relation("R").items():
            assert 0.3 <= prob <= 0.4

    def test_for_query_includes_constants(self):
        q = parse("R(a, x)", constants=("a",))
        db = random_database_for_query(q, 3, density=1.0, seed=2)
        assert any(row[0] == "a" for row in db.relation("R").tuples())

    def test_star_join_shape(self):
        db = star_join_instance(3, 4, seed=0)
        assert len(db.relation("R")) == 3
        assert len(db.relation("S")) == 12

    def test_four_partite_structure(self):
        db = four_partite_graph([0.5], [0.5], [(0, 0)])
        rows = set(db.relation("E").tuples())
        assert ("u", "x0") in rows and ("x0", "y0") in rows and ("y0", "v") in rows

    def test_triangled_structure(self):
        db = triangled_graph([0.5], [0.5], [(0, 0)])
        rows = set(db.relation("E").tuples())
        assert ("v0", "x0") in rows and ("y0", "v0") in rows
