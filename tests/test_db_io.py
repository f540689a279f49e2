"""The validating database loader (`repro.db.io`) and the answers CLI."""

import json

import pytest

from repro.cli import main
from repro.db.io import DatabaseFormatError, load_database, parse_database


def test_list_format():
    db = parse_database({"R": [[[1], 0.5], [[2], 0.3]], "S": [[[1, 2], 0.4]]})
    assert db.probability("R", (1,)) == 0.5
    assert db.probability("S", (1, 2)) == 0.4


def test_mapping_format():
    db = parse_database({
        "R": {"[1]": 0.5, "[2]": 0.3},
        "S": {"[1, 2]": 0.4},
        "T": {"brando": 0.9, "7": 0.2},
        "U": {"a, 3": 0.1},
    })
    assert db.probability("R", (1,)) == 0.5
    assert db.probability("S", (1, 2)) == 0.4
    assert db.probability("T", ("brando",)) == 0.9
    assert db.probability("T", (7,)) == 0.2
    assert db.probability("U", ("a", 3)) == 0.1


def test_formats_are_interchangeable():
    as_list = parse_database({"S": [[[1, 2], 0.4], [[1, 3], 0.7]]})
    as_mapping = parse_database({"S": {"[1, 2]": 0.4, "[1, 3]": 0.7}})
    assert list(as_list.relation("S").items()) == list(
        as_mapping.relation("S").items()
    )


@pytest.mark.parametrize("raw, fragment", [
    ([], "top level must be an object"),
    ({"R": 5}, "expected a list"),
    ({"R": [[[1], 1.5]]}, "outside [0, 1]"),
    ({"R": [[[1], "x"]]}, "must be a number"),
    ({"R": [[[1], 0.5], [[1, 2], 0.5]]}, "ragged arity"),
    ({"R": [[1, 0.5]]}, "row must be an array"),
    ({"R": [[[1]]]}, "[row, probability] pair"),
    ({"R": {"[1": 0.5}}, "not a JSON array"),
    ({"R": {"[1]": -0.1}}, "outside [0, 1]"),
])
def test_validation_errors(raw, fragment):
    with pytest.raises(DatabaseFormatError) as excinfo:
        parse_database(raw)
    assert fragment in str(excinfo.value)


def test_duplicate_list_rows_rejected():
    with pytest.raises(DatabaseFormatError) as excinfo:
        parse_database({"R": [[[1], 0.5], [[1], 0.7]]})
    message = str(excinfo.value)
    assert "'R'" in message and "[1]" in message and "duplicate row" in message
    assert "on_duplicate='overwrite'" in message


def test_duplicate_mapping_rows_rejected():
    # "[1]" and "1" decode to the same unary row.
    with pytest.raises(DatabaseFormatError) as excinfo:
        parse_database({"R": {"[1]": 0.5, "1": 0.7}})
    assert "duplicate row" in str(excinfo.value)


def test_duplicate_rows_overwrite_escape_hatch():
    db = parse_database(
        {"R": [[[1], 0.5], [[1], 0.7]]}, on_duplicate="overwrite"
    )
    assert db.probability("R", (1,)) == 0.7
    db = parse_database(
        {"R": {"[1]": 0.5, "1": 0.7}}, on_duplicate="overwrite"
    )
    assert db.probability("R", (1,)) == 0.7


def test_duplicates_allowed_across_relations():
    db = parse_database({"R": [[[1], 0.5]], "S": [[[1], 0.7]]})
    assert db.probability("R", (1,)) == 0.5
    assert db.probability("S", (1,)) == 0.7


def test_invalid_on_duplicate_rejected():
    with pytest.raises(ValueError, match="on_duplicate"):
        parse_database({"R": [[[1], 0.5]]}, on_duplicate="skip")
    with pytest.raises(ValueError, match="on_duplicate"):
        load_database("/nonexistent.json", on_duplicate="skip")


def test_load_database_rejects_textual_duplicate_keys(tmp_path):
    # json.loads would silently collapse these before validation.
    path = tmp_path / "dup.json"
    path.write_text('{"R": {"[1]": 0.5, "[1]": 0.7}}')
    with pytest.raises(DatabaseFormatError) as excinfo:
        load_database(str(path))
    assert "duplicate JSON object key" in str(excinfo.value)
    assert str(path) in str(excinfo.value)
    db = load_database(str(path), on_duplicate="overwrite")
    assert db.probability("R", (1,)) == 0.7


def test_load_database_reports_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"R": [[[1], 2.0]]}')
    with pytest.raises(DatabaseFormatError) as excinfo:
        load_database(str(path))
    assert "bad.json" in str(excinfo.value)
    path.write_text("not json")
    with pytest.raises(DatabaseFormatError) as excinfo:
        load_database(str(path))
    assert "not valid JSON" in str(excinfo.value)


def test_load_database_from_file(tmp_path):
    path = tmp_path / "db.json"
    path.write_text(json.dumps({"R": [[[1], 0.5]]}))
    assert load_database(str(path)).probability("R", (1,)) == 0.5
    with open(path) as handle:
        assert load_database(handle).probability("R", (1,)) == 0.5


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


@pytest.fixture
def demo_db(tmp_path):
    path = tmp_path / "db.json"
    path.write_text(json.dumps({
        "R": [[[1], 0.5], [[2], 0.9]],
        "S": {"[1, 10]": 0.4, "[2, 10]": 0.8, "[2, 11]": 0.7},
    }))
    return str(path)


def test_cli_answers(demo_db, capsys):
    assert main(["answers", "Q(x) :- R(x), S(x,y)", demo_db]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert "engine" in lines[0]
    assert "(2)" in lines[1]  # most probable answer first
    assert "safe-plan" in lines[1]
    assert "(1)" in lines[2]


def test_cli_answers_top_k(demo_db, capsys):
    assert main(["answers", "Q(x) :- R(x), S(x,y)", demo_db, "--top", "1"]) == 0
    out = capsys.readouterr().out
    assert "(2)" in out and "(1)" not in out.replace("(1, ", "")


def test_cli_answers_boolean_query(demo_db, capsys):
    assert main(["answers", "R(x), S(x,y)", demo_db]) == 0
    assert "()" in capsys.readouterr().out


def test_cli_evaluate_uses_loader(demo_db, capsys):
    assert main(["evaluate", "R(x), S(x,y)", demo_db]) == 0
    assert "p(q)" in capsys.readouterr().out


def test_cli_bad_database(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]")
    assert main(["answers", "Q(x) :- R(x)", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "top level" in err


def test_cli_bad_query(demo_db, capsys):
    assert main(["answers", "Q(z) :- R(x)", demo_db]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "answers"])
@pytest.mark.parametrize("query, message", [
    ("R(x), S(x,y), T(y), z > 3", "query is not range-restricted"),
    ("R(x, y)", "relation R has arity 1, but atom R(x, y) has arity 2"),
    ("Q(x) :- S(x)", "relation S has arity 2"),
])
def test_cli_query_database_mismatch(demo_db, capsys, command, query, message):
    assert main([command, query, demo_db]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: " + message)
    assert "Traceback" not in captured.err
