"""Tests for substructure counting and the classify/evaluate CLI."""

import pytest

from repro.analysis.counting import (
    count_satisfying_substructures,
    uniform_database,
)
from repro.core import parse
from repro.db import ProbabilisticDatabase, iterate_worlds, world_database
from repro.engines import SafePlanEngine
from repro.lineage import query_holds


class TestSubstructureCounting:
    def test_uniform_database(self):
        db = ProbabilisticDatabase.from_dict({"R": {(1,): 0.9}})
        uniform = uniform_database(db)
        assert float(uniform.probability("R", (1,))) == 0.5

    def test_count_matches_enumeration(self):
        db = ProbabilisticDatabase.from_dict(
            {"R": {(1,): 1, (2,): 1}, "S": {(1, 2): 1, (2, 1): 1, (2, 2): 1}}
        )
        q = parse("R(x), S(x,y)")
        count = count_satisfying_substructures(q, db)
        uniform = uniform_database(db)
        brute = sum(
            1
            for world, _w in iterate_worlds(uniform)
            if query_holds(q, world_database(uniform, world))
        )
        assert count == brute

    def test_count_with_safe_engine(self):
        db = ProbabilisticDatabase.from_dict(
            {"R": {(1,): 1}, "S": {(1, 5): 1}}
        )
        q = parse("R(x), S(x,y)")
        assert count_satisfying_substructures(
            q, db, engine=SafePlanEngine()
        ) == count_satisfying_substructures(q, db)

    def test_refuses_large_instances(self):
        db = ProbabilisticDatabase()
        for i in range(60):
            db.add("R", (i,), 1)
        with pytest.raises(ValueError):
            count_satisfying_substructures(parse("R(x)"), db)


class TestCLI:
    def test_classify(self, capsys):
        from repro.cli import main

        assert main(["classify", "R(x), S(x,y)"]) == 0
        out = capsys.readouterr().out
        assert "PTIME" in out

    def test_classify_hard_with_witness(self, capsys):
        from repro.cli import main

        main(["classify", "R(x), S(x,y), T(y)"])
        out = capsys.readouterr().out
        assert "#P-hard" in out and "cross" in out

    def test_evaluate(self, tmp_path, capsys):
        import json

        from repro.cli import main

        payload = {"R": [[[1], 0.5]], "S": [[[1, 2], 0.4]]}
        path = tmp_path / "db.json"
        path.write_text(json.dumps(payload))
        assert main(["evaluate", "R(x), S(x,y)", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0.2000000000" in out
        assert "safe-plan" in out

    def test_evaluate_exact_fallback(self, tmp_path, capsys):
        import json

        from repro.cli import main

        payload = {
            "R": [[[1], 0.5]],
            "S": [[[1, 2], 0.4]],
            "T": [[[2], 0.8]],
        }
        path = tmp_path / "db.json"
        path.write_text(json.dumps(payload))
        main(["evaluate", "R(x), S(x,y), T(y)", str(path), "--exact"])
        out = capsys.readouterr().out
        # The unsafe query gets an exact answer: the compiled tier when
        # the lineage compiles small, the WMC oracle otherwise.
        assert "compiled" in out or "lineage-wmc" in out
        assert "0.1600000000" in out
        assert "fallback: no safe plan" in out
