"""Cache correctness of the serving layer (`repro.serve`).

The invalidation matrix: for every query of the zoo and every kind of
database change — probability-only update, boundary overwrite,
structural insert, new relation — the session's warm path must agree
with a fresh router to 1e-9.  Plus the cache-behaviour contracts:
result hits on unchanged data, reweights (no recompilation) on
probability-only changes, regrounds on structural ones, and
cross-query batching of same-shape circuits.
"""

import json
import re
import sys
import threading

import pytest

from repro.cli import main
from repro.core import parse
from repro.core.parser import QueryParseError
from repro.core.query import canonical_string
from repro.db import ProbabilisticDatabase, random_database_for_query
from repro.engines import RouterEngine
from repro.lineage.wmc import exact_probability
from repro.lineage.grounding import ground_lineage
from repro.lineage.planner import GroundingError
from repro.serve import QuerySession
from repro.serve.session import parsed_shape

#: The query zoo for the matrix: every routing tier is represented
#: (hierarchical safe plans, safe self-joins, #P-hard residuals).
ZOO = [
    "R(x), S(x,y)",
    "R(x,y), S(y)",
    "R(x), S(x,y), T(x,y,z)",
    "R(x,y), R(y,x)",
    "P(x), R(x,y), R(xp,yp), S(xp)",
    "R(x), S(x,y), T(y)",
    "R(x,y), R(y,z)",
    "R(x), S(x,y), S(y,x)",
]

ANSWER_ZOO = [
    "Q(x) :- R(x), S(x,y)",
    "Q(x) :- R(x), S(x,y), T(y)",
    "Q(y) :- R(x), S(x,y), T(y)",
    "Q(x) :- R(x,y), R(y,z)",
    "Q(x,y) :- R(x,y), S(y)",
]


def fresh_probability(query, db):
    return RouterEngine(exact_fallback=True).probability(query, db)


def fresh_answers(query, db):
    return RouterEngine(exact_fallback=True).answers(query, db)


def interior_tuple(db, relations):
    """Some (relation, row) whose marginal is strictly inside (0, 1)."""
    for name in relations:
        for row, probability in db.relation(name).items():
            if 0 < probability < 1:
                return name, row
    raise AssertionError("no interior tuple in the instance")


def assert_same_ranking(got, want):
    assert len(got) == len(want)
    for (answer_g, value_g), (answer_w, value_w) in zip(got, want):
        assert answer_g == answer_w
        assert value_g == pytest.approx(value_w, abs=1e-9)


@pytest.mark.parametrize("text", ZOO)
def test_invalidation_matrix_boolean(text):
    query = parse(text)
    db = random_database_for_query(query, 3, density=0.6, seed=11)
    session = QuerySession(db, exact_fallback=True)

    # Cold path agrees with a fresh engine.
    assert session.evaluate(query) == pytest.approx(
        fresh_probability(query, db), abs=1e-9
    )

    # Unchanged database: pure result-cache hit.
    hits = session.stats.result_hits
    value = session.evaluate(query)
    assert session.stats.result_hits == hits + 1
    assert value == pytest.approx(fresh_probability(query, db), abs=1e-9)

    # Probability-only update: no re-grounding for unsafe tiers.
    name, row = interior_tuple(db, query.relations)
    regrounds = session.stats.regrounds
    session.update(name, row, 0.415)
    assert session.evaluate(query) == pytest.approx(
        fresh_probability(query, db), abs=1e-9
    )
    assert session.stats.regrounds == regrounds

    # Structural insert into a relation the query mentions.
    first = query.relations[0]
    arity = db.relation(first).arity
    db.add(first, tuple(900 + i for i in range(arity)), 0.5)
    assert session.evaluate(query) == pytest.approx(
        fresh_probability(query, db), abs=1e-9
    )

    # Boundary overwrite (interior -> certain) is structural.
    name, row = interior_tuple(db, query.relations)
    session.update(name, row, 1.0)
    assert session.evaluate(query) == pytest.approx(
        fresh_probability(query, db), abs=1e-9
    )

    # A new, unrelated relation does not invalidate anything.
    hits = session.stats.result_hits
    db.add("ZZZ_unrelated", (1,), 0.5)
    session.evaluate(query)
    assert session.stats.result_hits == hits + 1


@pytest.mark.parametrize("text", ANSWER_ZOO)
def test_invalidation_matrix_answers(text):
    query = parse(text)
    db = random_database_for_query(query, 3, density=0.6, seed=23)
    session = QuerySession(db, exact_fallback=True)

    assert_same_ranking(session.answers(query), fresh_answers(query, db))

    hits = session.stats.result_hits
    assert_same_ranking(session.answers(query), fresh_answers(query, db))
    assert session.stats.result_hits == hits + 1

    # Interleaved: re-weight, evaluate, insert, evaluate, re-weight...
    name, row = interior_tuple(db, query.relations)
    session.update(name, row, 0.515)
    assert_same_ranking(session.answers(query), fresh_answers(query, db))

    first = query.relations[0]
    arity = db.relation(first).arity
    db.add(first, tuple(800 + i for i in range(arity)), 0.45)
    assert_same_ranking(session.answers(query), fresh_answers(query, db))

    name, row = interior_tuple(db, query.relations)
    session.update(name, row, 0.0)  # boundary: kills matches, structural
    assert_same_ranking(session.answers(query), fresh_answers(query, db))


def test_probability_update_keeps_the_circuit():
    query = parse("R(x), S(x,y), T(y)")  # unsafe: compiled tier
    db = random_database_for_query(query, 4, density=0.7, seed=5)
    session = QuerySession(db, exact_fallback=True)
    session.evaluate(query)
    assert session.stats.regrounds == 1
    cache = session.router.compiled.cache
    misses = cache.misses
    name, row = interior_tuple(db, query.relations)
    for probability in (0.11, 0.52, 0.93 - 1e-9):
        session.update(name, row, probability)
        assert session.evaluate(query) == pytest.approx(
            fresh_probability(query, db), abs=1e-9
        )
    assert session.stats.regrounds == 1  # never re-grounded
    assert session.stats.reweights == 3
    assert cache.misses == misses  # and never recompiled


def test_structural_insert_triggers_reground():
    query = parse("R(x), S(x,y), T(y)")
    db = random_database_for_query(query, 4, density=0.7, seed=6)
    session = QuerySession(db, exact_fallback=True)
    session.evaluate(query)
    db.add("R", (901,), 0.5)
    session.evaluate(query)
    assert session.stats.regrounds == 2


def _mirror_db():
    """Disjoint relation pairs (R/S/T vs R2/S2/T2) with isomorphic
    instances, so the two non-hierarchical queries below share one
    canonical circuit."""
    mirror = {}
    for prefix, offset in (("", 0.0), ("2", 0.02)):
        mirror["R" + prefix] = {(i,): 0.3 + offset for i in range(4)}
        mirror["S" + prefix] = {
            (i, j): 0.5 + offset for i in range(4) for j in range(2)
        }
        mirror["T" + prefix] = {(j,): 0.7 + offset for j in range(2)}
    return ProbabilisticDatabase.from_dict(mirror)


def test_same_shape_queries_share_one_batched_sweep():
    # Two queries over disjoint relations with isomorphic lineages:
    # they canonicalize onto one circuit and evaluate as one matrix.
    db = _mirror_db()
    session = QuerySession(db, exact_fallback=True)
    queries = [parse("R(x), S(x,y), T(y)"), parse("R2(x), S2(x,y), T2(y)")]
    values = session.evaluate_many(queries)
    assert session.stats.batched_sweeps == 1
    assert session.stats.batched_rows == 2
    for query, value in zip(queries, values):
        assert value == pytest.approx(fresh_probability(query, db), abs=1e-9)


def test_isomorphic_queries_share_a_prepared_entry():
    query = parse("R(x), S(x,y)")
    db = random_database_for_query(query, 3, density=0.6, seed=2)
    session = QuerySession(db, exact_fallback=True)
    session.evaluate("R(x), S(x,y)")
    session.evaluate("R(a), S(a,b)")  # renaming of the same query
    assert session.stats.prepared == 1
    assert session.stats.prepare_hits >= 1


def test_a_text_is_parsed_once_per_kind(parse_calls):
    text = "Q(x) :- R(x), S(x,y)"
    db = random_database_for_query(parse(text), 3, density=0.7, seed=2)
    session = QuerySession(db, exact_fallback=True)
    for _ in range(3):
        session.evaluate(text)
        session.answers(text)
        session.evaluate_many([text, text])
    # The memo is per process: another session reads it too.
    QuerySession(db, exact_fallback=True).evaluate(text)
    assert parse_calls == [text, text]


def test_unparsable_text_is_never_memoized(parse_calls):
    session = QuerySession(ProbabilisticDatabase.from_dict({"R": {(1,): 0.5}}))
    for _ in range(2):
        with pytest.raises(QueryParseError):
            session.evaluate("R(x")
        with pytest.raises(QueryParseError):
            session.answers("R(x")
    assert parse_calls == ["R(x"] * 4
    assert parsed_shape.cache_info().currsize == 0
    with pytest.raises(TypeError):
        session.evaluate(42)


def test_evaluate_and_answers_of_one_text_keep_separate_shapes(parse_calls):
    text = "Q(x) :- R(x), S(x,y), T(y)"
    query = parse(text)
    db = random_database_for_query(query, 3, density=0.7, seed=5)
    session = QuerySession(db, exact_fallback=True)
    for _ in range(2):
        assert session.evaluate(text) == pytest.approx(
            fresh_probability(query, db), abs=1e-9
        )
        assert_same_ranking(session.answers(text), fresh_answers(query, db))
    assert session.stats.prepared == 2
    assert parsed_shape(text, True)[1] != parsed_shape(text, False)[1]


def test_the_text_memo_under_concurrent_eviction(parse_calls):
    # More distinct texts than the memo holds, read from more threads
    # than cores with a short switch interval: every read still gets
    # the query of its own text.
    texts = [f"R{i}(x), S{i}(x,y)" for i in range(300)]
    want = {text: canonical_string(parse(text)) for text in texts}
    errors = []

    def reader(offset):
        for index in range(len(texts)):
            text = texts[(index + offset) % len(texts)]
            if parsed_shape(text, False)[1] != want[text]:
                errors.append(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=reader, args=(37 * n,)) for n in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert parsed_shape.cache_info().currsize == 256


def test_prepared_cache_is_an_lru():
    db = ProbabilisticDatabase.from_dict({
        "R": {(1,): 0.5}, "S": {(1, 2): 0.5}, "T": {(2,): 0.5},
    })
    session = QuerySession(db, max_prepared=2, exact_fallback=True)
    for text in ("R(x)", "S(x,y)", "T(x)"):
        session.evaluate(text)
    assert len(session._prepared) == 2
    assert session.evaluate("R(x)") == pytest.approx(0.5)  # re-prepared


def test_answers_k_truncates_the_cached_ranking():
    query = parse("Q(x) :- R(x), S(x,y)")
    db = random_database_for_query(query, 4, density=0.8, seed=9)
    session = QuerySession(db, exact_fallback=True)
    full = session.answers(query)
    hits = session.stats.result_hits
    top2 = session.answers(query, k=2)
    assert session.stats.result_hits == hits + 1  # k served from cache
    assert top2 == full[:2]
    reference = RouterEngine(exact_fallback=True).answers(query, db, k=2)
    assert_same_ranking(top2, reference)


def test_caller_mutation_cannot_poison_the_answers_cache():
    query = parse("Q(x) :- R(x), S(x,y)")
    db = random_database_for_query(query, 4, density=0.8, seed=9)
    session = QuerySession(db, exact_fallback=True)
    first = session.answers(query)
    first.reverse()  # caller abuse must not reach the cache
    second = session.answers(query)
    assert second is not first
    assert_same_ranking(second, fresh_answers(query, db))


def test_boolean_query_through_answers_api():
    query = parse("R(x), S(x,y)")
    db = random_database_for_query(query, 3, density=0.7, seed=4)
    session = QuerySession(db, exact_fallback=True)
    [ranked] = session.answers_many([query])
    assert ranked == [((), pytest.approx(session.evaluate(query)))]


#: One Boolean query per serving tier: (query, session keywords, the
#: counter its random-instance read bumps).
BOOLEAN_TIERS = {
    "safe-plan": ("R(x), S(x,y)", {}, "safe_evaluations"),
    "lifted": ("R(x,y), R(y,x)", {}, "safe_evaluations"),
    "compiled": ("R(x), S(x,y), T(y)", {}, "batched_rows"),
    "exact-fallback": (
        "R(x), S(x,y), T(y)",
        {"compile_budget": 0, "exact_fallback": True},
        "fallbacks",
    ),
    "monte-carlo": (
        "R(x), S(x,y), T(y)", {"compile_budget": 0, "mc_seed": 3}, "fallbacks",
    ),
}

#: Per Boolean query: an instance with tuples but no match, and one
#: whose only match uses certain tuples.
EDGE_INSTANCES = {
    "R(x), S(x,y)": (
        {"R": {(1,): 0.5}, "S": {(2, 3): 0.4}},
        {"R": {(1,): 1.0, (2,): 0.5}, "S": {(1, 3): 1.0}},
    ),
    "R(x,y), R(y,x)": (
        {"R": {(1, 2): 0.5, (2, 3): 0.4}},
        {"R": {(1, 2): 1.0, (2, 1): 1.0, (2, 3): 0.4}},
    ),
    "R(x), S(x,y), T(y)": (
        {"R": {(1,): 0.5}, "S": {(1, 2): 0.4}, "T": {(3,): 0.6}},
        {"R": {(1,): 1.0, (4,): 0.5}, "S": {(1, 2): 1.0}, "T": {(2,): 1.0}},
    ),
}


@pytest.mark.parametrize("instance", ["random", "no-match", "certain-match"])
@pytest.mark.parametrize("tier", BOOLEAN_TIERS)
def test_boolean_answers_equal_evaluate_on_every_tier(tier, instance):
    text, config, counter = BOOLEAN_TIERS[tier]
    query = parse(text)
    if instance == "random":
        db = random_database_for_query(query, 3, density=0.7, seed=4)
    else:
        no_match, certain = EDGE_INSTANCES[text]
        db = ProbabilisticDatabase.from_dict(
            no_match if instance == "no-match" else certain
        )
    session = QuerySession(db, **config)
    ranked = session.answers(query)
    value = session.evaluate(query)
    assert session.stats.prepared == 1  # one entry serves both calls
    assert session.stats.result_hits == 1
    routed = tier if tier in ("safe-plan", "lifted") else "unsafe"
    assert session.prepare(query).tier == routed
    if instance == "no-match":
        assert (value, ranked) == (0.0, [])
        return
    assert ranked == [((), value)]
    if instance == "certain-match":
        assert value == 1.0
        return
    assert getattr(session.stats, counter) == 1
    tolerance = 0.05 if tier == "monte-carlo" else 1e-9
    assert value == pytest.approx(fresh_probability(query, db), abs=tolerance)


def test_answers_many_batches_its_boolean_members():
    db = _mirror_db()
    session = QuerySession(db, exact_fallback=True)
    queries = [parse("R(x), S(x,y), T(y)"), parse("R2(x), S2(x,y), T2(y)")]
    rankings = session.answers_many(queries)
    assert session.stats.batched_sweeps == 1  # one sweep, two rows
    assert session.stats.batched_rows == 2
    for query, ranked in zip(queries, rankings):
        assert ranked == [((), pytest.approx(
            fresh_probability(query, db), abs=1e-9
        ))]


def test_mc_fallback_refreshes_on_update():
    query = parse("R(x), S(x,y), T(y)")
    db = random_database_for_query(query, 5, density=0.7, seed=7)
    # compile_budget=0: every compilation fails fast, forcing the
    # Monte Carlo tier through the session's cached-lineage path.
    session = QuerySession(
        db, compile_budget=0, mc_samples=30_000, mc_seed=123
    )
    exact = exact_probability(ground_lineage(query, db))
    first = session.evaluate(query)
    assert 0.0 <= first <= 1.0
    assert first == pytest.approx(exact, abs=0.05)
    assert session.stats.fallbacks == 1
    name, row = interior_tuple(db, query.relations)
    session.update(name, row, 0.35)
    regrounds = session.stats.regrounds
    second = session.evaluate(query)
    assert session.stats.regrounds == regrounds  # lineage reused
    assert second == pytest.approx(
        exact_probability(ground_lineage(query, db)), abs=0.05
    )


def test_session_uses_injected_router():
    query = parse("R(x), S(x,y)")
    db = random_database_for_query(query, 3, density=0.7, seed=3)
    router = RouterEngine(exact_fallback=True, compile_budget=5_000)
    session = QuerySession(db, router)
    assert session.router is router
    assert session.evaluate(query) == pytest.approx(
        fresh_probability(query, db), abs=1e-9
    )


def test_session_rejects_router_plus_router_config():
    db = ProbabilisticDatabase.from_dict({"R": {(1,): 0.5}})
    router = RouterEngine()
    with pytest.raises(ValueError, match="exact_fallback"):
        QuerySession(db, router, exact_fallback=True)


def test_update_rejects_out_of_range_probability():
    db = ProbabilisticDatabase.from_dict({"R": {(1,): 0.5}})
    session = QuerySession(db)
    with pytest.raises(ValueError):
        session.update("R", (1,), 1.5)


def test_serve_cli_replays_a_workload(tmp_path, capsys):
    database = tmp_path / "db.json"
    database.write_text(json.dumps({
        "R": [[[1], 0.5], [[2], 0.6]],
        "S": [[[1, 10], 0.7], [[2, 10], 0.4]],
        "T": [[[10], 0.8]],
    }))
    requests = tmp_path / "requests.json"
    requests.write_text(json.dumps([
        {"op": "evaluate", "query": "R(x), S(x,y), T(y)"},
        {"op": "update", "relation": "R", "row": [1], "probability": 0.9},
        {"op": "evaluate", "query": "R(x), S(x,y), T(y)"},
        {"op": "answers", "query": "Q(x) :- R(x), S(x,y), T(y)", "top": 1},
        {"op": "batch", "queries": ["R(x), S(x,y)"]},
    ]))
    code = main(["serve", str(database), "--requests", str(requests),
                 "--exact"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("evaluate 'R(x), S(x,y), T(y)'") == 2
    assert "update R(1,) <- 0.9" in out
    assert "1 answers" in out
    assert "session: prepared" in out


def test_serve_cli_rejects_unknown_op(tmp_path, capsys):
    database = tmp_path / "db.json"
    database.write_text(json.dumps({"R": [[[1], 0.5]]}))
    requests = tmp_path / "requests.json"
    requests.write_text(json.dumps([{"op": "explode"}]))
    code = main(["serve", str(database), "--requests", str(requests)])
    assert code == 2
    assert "unknown op" in capsys.readouterr().err


@pytest.mark.parametrize("request_obj, fragment", [
    ({"op": "evaluate"}, "missing the 'query' field"),
    ({"op": "answers", "query": "Q(x) :- R(x)", "top": "3"},
     "top must be a non-negative integer"),
    ({"op": "answers", "query": "Q(x) :- R(x)", "top": -2},
     "top must be a non-negative integer"),
    ({"op": "batch", "queries": ["R(x)", 42]}, "query strings"),
    ({"op": "update", "relation": "R", "row": [1], "probability": "x"},
     "must be a number"),
    ({"op": "update", "relation": "R", "row": 1, "probability": 0.5},
     "array of scalars"),
])
def test_serve_cli_validates_request_fields(tmp_path, capsys, request_obj,
                                            fragment):
    database = tmp_path / "db.json"
    database.write_text(json.dumps({"R": [[[1], 0.5]]}))
    requests = tmp_path / "requests.json"
    requests.write_text(json.dumps([request_obj]))
    code = main(["serve", str(database), "--requests", str(requests)])
    assert code == 2
    err = capsys.readouterr().err
    assert "request 1" in err and fragment in err


def test_serve_cli_duplicate_rows_need_the_flag(tmp_path, capsys):
    database = tmp_path / "db.json"
    database.write_text('{"R": [[[1], 0.5], [[1], 0.7]]}')
    requests = tmp_path / "requests.json"
    requests.write_text(json.dumps([
        {"op": "evaluate", "query": "R(x)"},
    ]))
    assert main(["serve", str(database), "--requests", str(requests)]) == 2
    assert "duplicate row" in capsys.readouterr().err
    assert main(["serve", str(database), "--requests", str(requests),
                 "--allow-duplicates"]) == 0
    assert "p = 0.7" in capsys.readouterr().out


def test_stats_describe_mentions_the_counters():
    db = ProbabilisticDatabase.from_dict({"R": {(1,): 0.5}})
    session = QuerySession(db, exact_fallback=True)
    session.evaluate("R(x)")
    session.evaluate("R(x)")
    text = session.stats.describe()
    assert "cached" in text and "reweighted" in text


# ----------------------------------------------------------------------
# Malformed workload files must fail loudly (and name the culprit)
# ----------------------------------------------------------------------


def _write_serve_files(tmp_path, requests_text):
    database = tmp_path / "db.json"
    database.write_text(json.dumps({"R": [[[1], 0.5]]}))
    requests = tmp_path / "requests.json"
    requests.write_text(requests_text)
    return database, requests


def test_serve_cli_non_string_query_reports_the_request(tmp_path, capsys):
    # Used to escape as a TypeError traceback; must be a clean exit 2.
    database, requests = _write_serve_files(
        tmp_path, json.dumps([{"op": "evaluate", "query": 42}])
    )
    assert main(["serve", str(database), "--requests", str(requests)]) == 2
    err = capsys.readouterr().err
    assert "request 1" in err
    assert "query must be a string" in err
    assert '"query": 42' in err  # the offending request is echoed


def test_serve_cli_accepts_json_lines(tmp_path, capsys):
    database, requests = _write_serve_files(
        tmp_path,
        '{"op": "evaluate", "query": "R(x)"}\n'
        "\n"
        '{"op": "update", "relation": "R", "row": [1], "probability": 0.9}\n'
        '{"op": "evaluate", "query": "R(x)"}\n',
    )
    assert main(["serve", str(database), "--requests", str(requests)]) == 0
    out = capsys.readouterr().out
    assert "p = 0.5000000000" in out and "p = 0.9000000000" in out


@pytest.mark.parametrize("kind", ["evaluate", "answers"])
def test_atom_arity_must_match_the_stored_relation(kind):
    db = ProbabilisticDatabase.from_dict({"R": {(1,): 0.5}})
    session = QuerySession(db)
    router = RouterEngine()
    serve = getattr(session, kind)
    route = getattr(router, "probability" if kind == "evaluate" else kind)
    for text, message in [
        ("Q(x) :- R(x, y)", "relation R has arity 1, but atom R(x, y)"),
        ("Q(x) :- R(x), not R(x, 2)", "relation R has arity 1"),
    ]:
        with pytest.raises(GroundingError, match=re.escape(message)):
            serve(text)
        with pytest.raises(GroundingError, match="relation R has arity 1"):
            route(parse(text), db)
    # An absent relation reads as empty; once it exists, the prepared
    # query is checked against it again.
    assert serve("Q(x) :- S(x)") in (0.0, [])
    db.add("S", (1, 2), 0.5)
    with pytest.raises(GroundingError, match="relation S has arity 2"):
        serve("Q(x) :- S(x)")


@pytest.mark.parametrize("text", [
    "R(x), S(x,y), z > 3",
    "Q(x) :- R(x), S(x,y), z > 3",
])
def test_a_predicate_on_an_unbound_variable_is_rejected(text):
    # The query is safe: unchecked, the safe plan would drop the
    # predicate on z and answer as if it were absent, where grounding
    # rejects the query.  Every tier must reject it.
    db = ProbabilisticDatabase.from_dict({
        "R": {(1,): 0.5, (2,): 0.6},
        "S": {(1, 10): 0.4, (2, 10): 0.7},
    })
    session = QuerySession(db)
    router = RouterEngine()
    for call in (
        lambda: session.evaluate(text),
        lambda: session.answers(text),
        lambda: router.probability(parse(text), db),
        lambda: router.answers(parse(text), db),
    ):
        with pytest.raises(GroundingError, match="not range-restricted"):
            call()


def test_serve_cli_jsonl_error_names_the_line(tmp_path, capsys):
    database, requests = _write_serve_files(
        tmp_path,
        '{"op": "evaluate", "query": "R(x)"}\n'
        '{"op": "evaluate" "query"}\n',
    )
    assert main(["serve", str(database), "--requests", str(requests)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    assert 'offending line: {"op": "evaluate" "query"}' in err


def test_serve_cli_jsonl_bad_request_names_the_line(tmp_path, capsys):
    database, requests = _write_serve_files(
        tmp_path,
        '{"op": "evaluate", "query": "R(x)"}\n'
        '{"op": "evaluate", "query": "R(x,"}\n',
    )
    assert main(["serve", str(database), "--requests", str(requests)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_serve_cli_empty_and_non_list_files(tmp_path, capsys):
    database, requests = _write_serve_files(tmp_path, "")
    assert main(["serve", str(database), "--requests", str(requests)]) == 2
    assert "empty request file" in capsys.readouterr().err
    requests.write_text('["R(x)"]')
    assert main(["serve", str(database), "--requests", str(requests)]) == 2
    assert '"op" key' in capsys.readouterr().err


def test_serve_cli_needs_requests_xor_listen(tmp_path, capsys):
    database = tmp_path / "db.json"
    database.write_text(json.dumps({"R": [[[1], 0.5]]}))
    assert main(["serve", str(database)]) == 2
    assert "exactly one of" in capsys.readouterr().err
    assert main(["serve", str(database), "--requests", "x.json",
                 "--listen", "8080"]) == 2
    assert "exactly one of" in capsys.readouterr().err


def test_serve_cli_listen_rejects_bad_address(tmp_path, capsys):
    database = tmp_path / "db.json"
    database.write_text(json.dumps({"R": [[[1], 0.5]]}))
    assert main(["serve", str(database), "--listen", "nope"]) == 2
    assert "[HOST:]PORT" in capsys.readouterr().err
    assert main(["serve", str(database), "--listen", "8080",
                 "--workers", "-2"]) == 2
    assert "--workers" in capsys.readouterr().err
