"""One routing ladder: ``p(q)`` is the one answer ``()`` of the query
with the empty head, in the router and in the serving session alike.

Each tier of the ladder is driven over a random instance, an instance
with no match and one whose match is certain.  The router's
``probability`` must equal the session's ``evaluate`` (bit-equal on
Monte Carlo at a fixed seed), its ``answers`` must rank the one answer
``()``, and its history must hold one decision per ``probability``
call (zeros included) and one per returned answer.
"""

import pytest

from repro.core import parse
from repro.db import ProbabilisticDatabase, random_database_for_query, schema_of
from repro.engines import MonteCarloEngine, RouterEngine, rank_answers
from repro.serve import QuerySession

UNSAFE = "R(x), S(x,y), T(y)"

#: (tier name, query, router/session configuration).
TIERS = [
    ("safe-plan", "R(x), S(x,y)", {}),
    ("lifted", "R(x,y), R(y,x)", {}),
    ("compiled", UNSAFE, {}),
    ("lineage-wmc", UNSAFE, {"compile_budget": 0, "exact_fallback": True}),
    ("monte-carlo", UNSAFE, {"compile_budget": 0, "mc_seed": 5}),
]


def _random(query):
    return random_database_for_query(query, 3, density=0.7, seed=2)


def _no_match(query):
    """One tuple per relation, every position a fresh value: no join."""
    db = ProbabilisticDatabase()
    fresh = iter(range(1000))
    for relation, arity in schema_of(query).items():
        db.add(relation, tuple(next(fresh) for _ in range(arity)), 0.5)
    return db


def _certain_match(query):
    """The all-ones tuple of every relation, with probability 1."""
    db = ProbabilisticDatabase()
    for relation, arity in schema_of(query).items():
        db.add(relation, (1,) * arity, 1.0)
    return db


INSTANCES = {
    "random": _random,
    "no-match": _no_match,
    "certain-match": _certain_match,
}


def _expected_tier(tier, instance):
    # A trivial lineage (no match, or a certain one) never needs a
    # circuit: the enabled compiled tier answers it before any fallback.
    if tier in ("lineage-wmc", "monte-carlo") and instance != "random":
        return "compiled"
    return tier


@pytest.mark.parametrize("instance", sorted(INSTANCES))
@pytest.mark.parametrize(
    "tier,text,config", TIERS, ids=[tier for tier, _, _ in TIERS]
)
def test_router_and_session_read_one_ladder(tier, text, config, instance):
    query = parse(text)
    db = INSTANCES[instance](query)
    router = RouterEngine(**config)
    p = router.probability(query, db)
    want = QuerySession(db, **config).evaluate(query)
    if tier == "monte-carlo":
        assert p == want
    else:
        assert p == pytest.approx(want, abs=1e-12)
    if instance == "no-match":
        assert p == 0.0
    if instance == "certain-match":
        assert p == 1.0

    assert len(router.history) == 1
    decision = router.history[-1]
    assert decision.answer is None
    assert decision.engine == _expected_tier(tier, instance)
    assert decision.probability == p

    ranked = router.answers(query, db)
    assert ranked == ([((), p)] if p > 0.0 else [])
    answered = list(router.history)[1:]
    assert len(answered) == len(ranked)
    assert all(d.answer == () for d in answered)
    assert all(d.engine == decision.engine for d in answered)


# ----------------------------------------------------------------------
# Headed queries and k at the Python API
# ----------------------------------------------------------------------

#: A head over an unsafe residual: every answer is #P-hard.
HEADED = parse("Q(w) :- W(w), R(x), S(x,y), T(y)")


@pytest.fixture
def headed_db():
    return ProbabilisticDatabase.from_dict({
        "W": {(1,): 0.9, (2,): 0.4},
        "R": {(1,): 0.5, (2,): 0.7},
        "S": {(1, 1): 0.3, (1, 2): 0.6, (2, 1): 0.8, (2, 2): 0.2},
        "T": {(1,): 0.45, (2,): 0.65},
    })


def test_headed_monte_carlo_answers_match_the_session(headed_db):
    config = {"compile_budget": 0, "mc_seed": 5}
    router = RouterEngine(**config)
    ranked = router.answers(HEADED, headed_db)
    assert len(ranked) == 2
    assert ranked == QuerySession(headed_db, **config).answers(HEADED)
    assert {d.engine for d in router.history} == {"monte-carlo"}


def test_k_zero_draws_nothing(headed_db):
    engine = MonteCarloEngine(seed=5)
    assert engine.answers(HEADED, headed_db, k=0) == []
    assert engine.last_samples_drawn == 0
    router = RouterEngine(compile_budget=0, mc_seed=5)
    assert router.answers(HEADED, headed_db, k=0) == []
    assert not router.history


def test_negative_k_is_rejected(headed_db):
    with pytest.raises(ValueError, match="k must be"):
        rank_answers([((1,), 0.5)], -1)
    with pytest.raises(ValueError, match="k must be"):
        RouterEngine(compile_budget=0, mc_seed=5).answers(
            HEADED, headed_db, k=-1
        )
    session = QuerySession(headed_db, mc_seed=5)
    with pytest.raises(ValueError, match="k must be"):
        session.answers(HEADED, k=-1)
    # Rejected before any work: nothing was prepared.
    assert session.stats.prepared == 0
