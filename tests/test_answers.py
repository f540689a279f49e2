"""Answer-tuple queries end-to-end: parsing, grounding, engine agreement.

The sweep mirrors ``test_engine_agreement``: the lineage-WMC oracle
anchors everything, every exact engine must agree with it to 1e-9 on
``answers()`` over the query zoo (heads added) and random databases;
Monte Carlo must land within its own confidence interval.
"""

import pytest

from repro.core import parse
from repro.core.parser import QueryParseError
from repro.core.query import ConjunctiveQuery, query
from repro.core.terms import Constant, Variable
from repro.db import ProbabilisticDatabase, random_database_for_query
from repro.engines import (
    BruteForceEngine,
    CompiledEngine,
    LiftedEngine,
    LineageEngine,
    MonteCarloEngine,
    RouterEngine,
    SafePlanEngine,
    UnsafeQueryError,
    UnsupportedQueryError,
    generic_residual,
    is_safe_query,
)
from repro.engines.safe_plan import check_supported
from repro.lineage.grounding import ground_answer_lineages, ground_lineage
from repro.lineage.wmc import exact_probability
from repro.queries import zoo

oracle = LineageEngine()

HEAD_QUERIES = [
    "Q(x) :- R(x), S(x,y)",
    "Q(y) :- R(x), S(x,y)",
    "Q(x,y) :- R(x), S(x,y)",
    "Q(x) :- R(x), S(x,y), T(y)",        # non-hierarchical body, safe residual
    "Q(x) :- R(x,y), R(y,x)",            # self-join
    "Q(x) :- R(x), S(x,y), S(y,x)",      # marked ring body
    "Q(x) :- P(x), R(x,y), R(xp,yp), S(xp)",
    "Q(x,u) :- R(x), S(x,y), U(u)",      # head split across components
    "Q(x) :- R(x,y), x < y",             # with a predicate
    "Q(x,x) :- R(x), S(x,y)",            # repeated head variable
]


# ----------------------------------------------------------------------
# Parsing and core semantics
# ----------------------------------------------------------------------


def test_parse_head_query():
    q = parse("Q(x, y) :- R(x), S(x,y)")
    assert q.head == (Variable("x"), Variable("y"))
    assert q.head_variables == (Variable("x"), Variable("y"))
    assert not q.is_boolean
    assert str(q) == "Q(x, y) :- R(x), S(x, y)"


def test_parse_boolean_unchanged():
    q = parse("R(x), S(x,y)")
    assert q.head is None
    assert q.is_boolean
    assert q == ConjunctiveQuery(q.atoms)


def test_boolean_and_head_queries_differ():
    boolean = parse("R(x), S(x,y)")
    headed = parse("Q(x) :- R(x), S(x,y)")
    assert boolean != headed
    assert hash(boolean) != hash(headed)
    assert headed.boolean() == boolean


def test_parse_head_errors():
    with pytest.raises(QueryParseError):
        parse("Q(z) :- R(x), S(x,y)")  # head variable not in body
    with pytest.raises(QueryParseError):
        parse("Q(x :- R(x)")
    with pytest.raises(QueryParseError):
        parse("Q(x) :- R(x) :- S(x)")


def test_parse_empty_head():
    q = parse("Q() :- R(x)")
    assert q.head == ()
    assert q.head_variables == ()


def test_query_builder_head():
    from repro.core.atoms import atom

    q = query(atom("R", "x"), atom("S", "x", "y"), head=("x",))
    assert q == parse("Q(x) :- R(x), S(x,y)")


def test_bind_head():
    q = parse("Q(x, y) :- R(x), S(x,y)")
    residual = q.bind_head((1, 2))
    assert residual == parse("R(1), S(1, 2)")
    assert residual.head is None
    with pytest.raises(ValueError):
        q.bind_head((1,))
    with pytest.raises(ValueError):
        parse("Q(x,x) :- R(x), S(x,y)").bind_head((1, 2))


def test_substitution_threads_head():
    q = parse("Q(x, y) :- R(x), S(x,y)")
    bound = q.substitute(Variable("x"), Constant(7))
    assert bound.head == (Constant(7), Variable("y"))


# ----------------------------------------------------------------------
# Shared grounding
# ----------------------------------------------------------------------


@pytest.mark.parametrize("text", HEAD_QUERIES)
def test_grouped_lineages_match_per_answer_grounding(text):
    q = parse(text)
    db = random_database_for_query(q, 3, density=0.7, seed=11)
    grouped = ground_answer_lineages(q, db)
    assert grouped, f"no answers for {text}"
    for answer, lineage in grouped.items():
        direct = ground_lineage(q.bind_head(answer), db)
        assert exact_probability(lineage) == pytest.approx(
            exact_probability(direct), abs=1e-12
        )


#: Tuples for the Boolean grounding cases that match uncertain tuples.
_CHAIN = {
    "R": {(1,): 0.5, (2,): 0.7},
    "S": {(1, 3): 0.4, (2, 3): 0.6, (2, 4): 0.9},
    "T": {(3,): 0.8, (4,): 0.2},
}

#: Boolean grounding cases: (query, database, answer keys).
BOOLEAN_GROUNDING = {
    "cq": ("R(x), S(x,y), T(y)", _CHAIN, [()]),
    "ucq": ("R(x), S(x,y) | S(u,v), T(v)", _CHAIN, [()]),
    "no-match": ("R(x), S(x,y)", {"R": {(1,): 0.5}, "S": {(2, 3): 0.4}}, []),
    "certain-match": (
        "R(x), S(x,y)",
        {"R": {(1,): 1.0, (2,): 0.3}, "S": {(1, 5): 1.0, (3, 4): 0.6}},
        [()],
    ),
}


@pytest.mark.parametrize("case", BOOLEAN_GROUNDING)
def test_boolean_query_grounds_to_the_empty_answer(case):
    from repro.db.database import ProbabilisticDatabase
    from repro.lineage.boolean import make_lineage

    text, rows, keys = BOOLEAN_GROUNDING[case]
    q = parse(text)
    db = ProbabilisticDatabase.from_dict(rows)
    lineages = ground_answer_lineages(q, db)
    assert list(lineages) == keys
    expected = ground_lineage(q, db)
    assert lineages.get((), make_lineage((), {})) == expected
    assert expected.certainly_true == (case == "certain-match")
    assert expected.is_false == (case == "no-match")


# ----------------------------------------------------------------------
# Engine agreement sweep
# ----------------------------------------------------------------------


def _agree(result, expected, label):
    assert len(result) == len(expected), (
        f"{label}: {len(result)} answers vs oracle {len(expected)}"
    )
    for (answer, probability), (oracle_answer, oracle_p) in zip(result, expected):
        assert answer == oracle_answer, label
        assert probability == pytest.approx(oracle_p, abs=1e-9), (
            f"{label}: {answer}"
        )


@pytest.mark.parametrize("text", HEAD_QUERIES)
@pytest.mark.parametrize("seed", [7, 23])
def test_exact_engines_agree_on_answers(text, seed):
    q = parse(text)
    db = random_database_for_query(q, 3, density=0.7, seed=seed)
    expected = oracle.answers(q, db)
    residual = generic_residual(q)

    _agree(CompiledEngine().answers(q, db), expected, f"compiled {text}")
    _agree(RouterEngine(mc_seed=0).answers(q, db), expected, f"router {text}")

    try:
        check_supported(residual)
        plan_ok = True
    except UnsupportedQueryError:
        plan_ok = False
    if plan_ok:
        _agree(SafePlanEngine().answers(q, db), expected, f"safe-plan {text}")
    if is_safe_query(residual).safe:
        try:
            _agree(LiftedEngine().answers(q, db), expected, f"lifted {text}")
        except UnsafeQueryError:
            pass  # generic residual safe, a concrete one not — router falls back

    if db.tuple_count() <= 14:
        _agree(BruteForceEngine().answers(q, db), expected, f"brute {text}")


@pytest.mark.parametrize("entry", [
    e for e in zoo() if not e.slow and e.query.variables
][:12], ids=lambda e: e.name)
def test_zoo_queries_with_heads(entry):
    head_var = entry.query.variables[0]
    q = ConjunctiveQuery(
        entry.query.atoms, entry.query.predicates, head=(head_var,)
    )
    db = random_database_for_query(q, 2, density=0.8, seed=3)
    expected = oracle.answers(q, db)
    _agree(CompiledEngine().answers(q, db), expected, f"compiled {entry.name}")
    _agree(
        RouterEngine(exact_fallback=True).answers(q, db),
        expected,
        f"router {entry.name}",
    )


@pytest.mark.parametrize("text", [
    "Q(x) :- R(x), S(x,y), T(y)",
    "Q(x) :- R(x), S(x,y), S(y,x)",
])
def test_monte_carlo_answers_within_interval(text):
    q = parse(text)
    db = random_database_for_query(q, 4, density=0.7, seed=5)
    expected = dict(oracle.answers(q, db))
    mc = MonteCarloEngine(samples=6000, seed=17)
    result = mc.answers(q, db)
    assert set(a for a, _ in result) <= set(expected)
    for answer, estimate in result:
        _, half_width = mc.last_intervals[answer]
        tolerance = max(3 * half_width, 0.02)
        assert estimate == pytest.approx(expected[answer], abs=tolerance)


def test_sampler_interval_never_collapses_at_extremes():
    # A 0-hits batch must not report certainty: the Wald width is zero
    # at 0/n, which froze the multisimulation on high-probability
    # answers with many clauses (estimate 0, answer dropped).  The
    # smoothed width stays positive at both extremes.
    from repro.db.database import ProbabilisticDatabase
    from repro.engines import KarpLubySampler
    from repro.lineage.grounding import ground_answer_lineages
    import random as random_module

    db = ProbabilisticDatabase()
    db.add("A", (0,), 0.95)
    for j in range(300):
        db.add("B", (0, j), 0.01)
    q = parse("Q(x) :- A(x), B(x,y)")
    (lineage,) = ground_answer_lineages(q, db).values()
    sampler = KarpLubySampler(lineage, random_module.Random(0))
    sampler.extend(64)
    _, half_width = sampler.interval()
    assert half_width > 0.0
    sampler.hits = sampler.drawn  # force the n/n extreme
    _, half_width = sampler.interval()
    assert half_width > 0.0

    for seed in range(5):
        mc = MonteCarloEngine(samples=1000, seed=seed)
        result = mc.answers(q, db)
        assert len(result) == 1, "high-probability answer vanished"
        assert result[0][1] == pytest.approx(
            oracle.answers(q, db)[0][1], abs=0.25
        )


def test_head_variable_must_occur_positively():
    with pytest.raises(QueryParseError):
        parse("Q(x) :- R(y), not S(x,y)")


def test_head_split_ignores_quoted_neck():
    q = parse("R('a:-b')")
    assert q.is_boolean
    assert q.constants[0].value == "a:-b"


def test_multisimulation_top_k_saves_samples():
    q = parse("Q(x) :- R(x), S(x,y), T(y)")
    db = random_database_for_query(q, 5, density=0.7, seed=9)
    expected = oracle.answers(q, db)
    mc = MonteCarloEngine(samples=6000, seed=17)
    full = mc.answers(q, db)
    full_cost = mc.last_samples_drawn
    top = mc.answers(q, db, k=2)
    assert mc.last_samples_drawn < full_cost
    assert [a for a, _ in top] == [a for a, _ in expected[:2]]
    assert len(top) == 2 and len(full) == len(expected)


# ----------------------------------------------------------------------
# Router behaviour
# ----------------------------------------------------------------------


def test_router_answers_acceptance():
    q = parse("Q(x) :- R(x), S(x,y)")
    db = random_database_for_query(q, 4, density=0.7, seed=2)
    router = RouterEngine()
    before = len(router.history)
    results = router.answers(q, db)
    assert results == oracle.answers(q, db) or all(
        a1 == a2 and p1 == pytest.approx(p2, abs=1e-9)
        for (a1, p1), (a2, p2) in zip(results, oracle.answers(q, db))
    )
    probabilities = [p for _, p in results]
    assert probabilities == sorted(probabilities, reverse=True)
    decisions = list(router.history)[before:]
    assert len(decisions) == len(results)
    assert {d.answer for d in decisions} == {a for a, _ in results}
    assert all(d.engine == "safe-plan" and d.safe for d in decisions)
    # per-answer agreement with Boolean evaluation of the residual
    for answer, probability in results:
        assert probability == pytest.approx(
            oracle.probability(q.bind_head(answer), db), abs=1e-9
        )


def test_router_boolean_queries_unchanged():
    q = parse("R(x), S(x,y)")
    db = random_database_for_query(q, 3, density=0.7, seed=4)
    router = RouterEngine()
    p = router.probability(q, db)
    assert p == pytest.approx(SafePlanEngine().probability(q, db), abs=1e-12)
    assert router.history[-1].engine == "safe-plan"
    assert router.history[-1].answer is None
    answers = router.answers(q, db)
    assert answers == [((), pytest.approx(p, abs=1e-12))]


def test_router_records_interval_on_mc_fallback():
    q = parse("R(x), S(x,y), T(y)")
    db = random_database_for_query(q, 6, density=0.6, seed=8)
    router = RouterEngine(compile_budget=None, mc_samples=2000, mc_seed=1)
    router.probability(q, db)
    decision = router.history[-1]
    assert decision.engine == "monte-carlo"
    assert decision.interval is not None and decision.interval > 0.0
    assert "±" in decision.describe()
    # A zero reached by the fallback records a zero-width interval.
    empty = ProbabilisticDatabase.from_dict({"R": {(1,): 0.5}, "T": {(2,): 0.5}})
    assert router.probability(q, empty) == 0.0
    assert router.history[-1].engine == "monte-carlo"
    assert router.history[-1].interval == 0.0


def test_router_top_k_truncates():
    q = parse("Q(x) :- R(x), S(x,y)")
    db = random_database_for_query(q, 5, density=0.9, seed=6)
    router = RouterEngine()
    all_answers = router.answers(q, db)
    top = router.answers(q, db, k=2)
    assert top == all_answers[:2]
