"""Differential harness: cost-based grounding planner vs the legacy order.

Grounding is correctness-critical for every engine tier, so the planner
(`src/repro/lineage/planner.py`) ships pinned to the seed's grounder:

* every query in the zoo, and ≥200 seeded random CQs/UCQs over random
  databases, must produce *identical lineages* (``Lineage.__eq__`` is
  already canonical — frozenset clauses + weights) through the cost
  planner and through ``plan="legacy"``;
* property tests: semijoin filters and distinct-mode projections never
  change the set of answer tuples, and pre-bound equality predicates
  never change deterministic truth;
* regression tests for the satellite fixes (index-preferring probe
  choice, the zero-positive-atom error) and the edge cases the planner
  must preserve (all-constant negated atoms, all-constant self-join
  occurrences, predicates binding before any atom), with engine
  agreement at 1e-9.

All randomness is seeded through the fixed matrices below so any
failure reproduces bit-for-bit.
"""

import random

import pytest

from repro.core.atoms import atom
from repro.core.parser import parse
from repro.core.predicates import comparison
from repro.core.query import ConjunctiveQuery, query
from repro.core.terms import Variable
from repro.core.union import UnionQuery, disjuncts_of
from repro.db.database import ProbabilisticDatabase
from repro.db.generators import random_database, random_database_for_query
from repro.engines import CompiledEngine, LineageEngine, RouterEngine
from repro.lineage.grounding import (
    answer_tuples,
    answers_holding,
    find_matches,
    ground_answer_lineages,
    ground_lineage,
    query_holds,
)
from repro.lineage.planner import (
    GroundingError,
    GroundingPlanner,
    build_join_graph,
)
from repro.obs.metrics import MetricsRegistry
from repro.queries.zoo import zoo

#: Fixed seed matrices — failures must reproduce.
ZOO_SEEDS = (11, 23)
RANDOM_BATCHES = tuple(range(10))
QUERIES_PER_BATCH = 25  # 10 batches x 25 = 250 random queries

SCHEMA = {"R": 2, "S": 2, "T": 1, "U": 3}


def _planners():
    return GroundingPlanner(mode="cost"), GroundingPlanner(mode="legacy")


def _assert_same_grounding(q, db):
    """The core differential assertion: identical lineages both ways."""
    cost, legacy = _planners()
    boolean = q.boolean() if q.head is not None else q
    assert ground_lineage(boolean, db, planner=cost) == \
        ground_lineage(boolean, db, planner=legacy)
    if q.head is not None:
        assert ground_answer_lineages(q, db, planner=cost) == \
            ground_answer_lineages(q, db, planner=legacy)


# ----------------------------------------------------------------------
# Zoo differential
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "entry", zoo(), ids=lambda entry: entry.name
)
@pytest.mark.parametrize("seed", ZOO_SEEDS)
def test_zoo_differential(entry, seed):
    db = random_database_for_query(
        entry.query, domain_size=5, density=0.5, seed=seed
    )
    _assert_same_grounding(entry.query, db)


@pytest.mark.parametrize(
    "entry", [e for e in zoo() if e.query.head is None][:6],
    ids=lambda entry: entry.name,
)
def test_zoo_matches_same_set(entry):
    """find_matches returns the same assignments in any order."""
    db = random_database_for_query(
        entry.query, domain_size=4, density=0.6, seed=7
    )
    for disjunct in disjuncts_of(entry.query):
        planned = find_matches(disjunct, db, plan="cost")
        legacy = find_matches(disjunct, db, plan="legacy")
        key = lambda m: sorted((v.name, repr(x)) for v, x in m.items())
        assert sorted(planned, key=key) == sorted(legacy, key=key)


# ----------------------------------------------------------------------
# Seeded random CQs / UCQs
# ----------------------------------------------------------------------


def _random_cq(rng, with_head=False):
    names = sorted(SCHEMA)
    variables = [f"x{i}" for i in range(5)]
    parts = []
    used = []
    for _ in range(rng.randint(1, 4)):
        name = rng.choice(names)
        terms = []
        for _pos in range(SCHEMA[name]):
            if rng.random() < 0.2:
                terms.append(rng.randrange(4))
            else:
                v = rng.choice(variables)
                terms.append(v)
                if v not in used:
                    used.append(v)
        parts.append(atom(name, *terms))
    if used and rng.random() < 0.3:
        name = rng.choice(names)
        terms = [
            rng.choice(used) if rng.random() < 0.7 else rng.randrange(4)
            for _ in range(SCHEMA[name])
        ]
        parts.append(atom(name, *terms, negated=True))
    if used and rng.random() < 0.4:
        v = rng.choice(used)
        op = rng.choice(["<", "=", "!="])
        if rng.random() < 0.5 and len(used) > 1:
            w = rng.choice([u for u in used if u != v])
            parts.append(comparison(v, op, w))
        else:
            parts.append(comparison(v, op, rng.randrange(4)))
    head = None
    if with_head and used:
        head = rng.sample(used, rng.randint(1, min(2, len(used))))
    return query(*parts, head=head)


def _random_query(rng):
    """A CQ two thirds of the time, else a UCQ of 2–3 disjuncts."""
    if rng.random() < 2 / 3:
        return _random_cq(rng, with_head=rng.random() < 0.4)
    with_head = rng.random() < 0.3
    disjuncts = [
        _random_cq(rng, with_head=False) for _ in range(rng.randint(2, 3))
    ]
    if with_head:
        # A shared-arity head: project the first variable of each
        # disjunct (skip disjuncts with no variables).
        projected = []
        for d in disjuncts:
            body_vars = [
                v for a in d.atoms if not a.negated for v in a.variables
            ]
            if body_vars:
                projected.append(
                    ConjunctiveQuery(
                        d.atoms, d.predicates, head=[body_vars[0]]
                    )
                )
        disjuncts = projected or disjuncts
        if len(disjuncts) == 1:
            return disjuncts[0]
    return UnionQuery.of(disjuncts)


@pytest.mark.parametrize("batch", RANDOM_BATCHES)
def test_random_differential(batch):
    """≥200 seeded random CQs/UCQs: planner == legacy lineages."""
    rng = random.Random(1000 + batch)
    for case in range(QUERIES_PER_BATCH):
        q = _random_query(rng)
        db = random_database(
            SCHEMA, domain_size=5, density=0.4,
            seed=rng.randrange(1 << 30),
        )
        try:
            _assert_same_grounding(q, db)
        except GroundingError:
            # A rare draw is not range-restricted (negated-only vars);
            # both modes must agree on that too.
            for mode in ("cost", "legacy"):
                with pytest.raises(GroundingError):
                    for d in disjuncts_of(q):
                        find_matches(d, db, plan=mode)
        except AssertionError:
            raise AssertionError(
                f"differential mismatch: batch={batch} case={case} "
                f"query={q}"
            )


# ----------------------------------------------------------------------
# Property tests: semijoins / projections / pre-binding are invisible
# ----------------------------------------------------------------------


def _skewed_db(seed, big=400, small=8, domain=120):
    """Big R/S over a wide domain, tiny T/U — skew that exercises the
    planner's semijoin path: S's first column is drawn from a narrow
    sub-domain, so a wide scan of R can be filtered by membership in
    S's (far smaller) join-column value set."""
    rng = random.Random(seed)
    db = ProbabilisticDatabase()
    for _ in range(big):
        db.add("R", (rng.randrange(domain), rng.randrange(domain)), 0.5)
        db.add("S", (rng.randrange(10), rng.randrange(domain)), 0.5)
    for _ in range(small):
        db.add("T", (rng.randrange(domain),), 0.5)
        db.add("U", (rng.randrange(domain), rng.randrange(domain),
                     rng.randrange(domain)), 0.5)
    return db


SKEWED_QUERIES = [
    query(atom("R", "x", "y"), atom("S", "y", "z"), head=["x"]),
    query(atom("R", "x", "y"), atom("S", "y", "z"), atom("T", "z"),
          head=["x"]),
    query(atom("R", "x", "y"), atom("S", "x", "z"), atom("U", "x", "y", "z"),
          head=["y", "z"]),
    query(atom("R", "x", "y"), atom("T", "x"), comparison("y", "<", 60),
          head=["y"]),
    query(atom("R", "x", "y"), atom("S", "y", "w"), atom("T", "x"),
          atom("U", "x", "x", "w", negated=True), head=["x", "w"]),
]


@pytest.mark.parametrize("qi", range(len(SKEWED_QUERIES)))
@pytest.mark.parametrize("seed", (3, 17))
def test_semijoin_projection_preserve_answers(qi, seed):
    """Planned semijoins/projections never change the answer set."""
    q = SKEWED_QUERIES[qi]
    db = _skewed_db(seed)
    cost, legacy = _planners()
    assert answers_holding(q, db, planner=cost) == \
        answers_holding(q, db, planner=legacy)
    assert answer_tuples(q, db, planner=cost) == \
        answer_tuples(q, db, planner=legacy)
    assert query_holds(q.boolean(), db, planner=cost) == \
        query_holds(q.boolean(), db, planner=legacy)
    # The lineage differential on the same skewed instances.
    _assert_same_grounding(q, db)


def test_semijoin_actually_fires():
    """A high-fanout index probe prunable by a narrow joining column
    gets a semijoin filter — and grounding stays identical."""
    rng = random.Random(6)
    db = ProbabilisticDatabase()
    for _ in range(2000):
        # Column 0 is heavily skewed (20 values): an index probe on it
        # still returns ~80 rows, well past the semijoin threshold.
        db.add("R", (rng.randrange(20), rng.randrange(200)), 0.5)
    for _ in range(40):
        db.add("S", (rng.randrange(10), rng.randrange(200)), 0.5)
    for _ in range(8):
        db.add("T", (rng.randrange(20),), 0.5)
    q = query(atom("T", "x"), atom("R", "x", "y"), atom("S", "y", "z"),
              head=["z"])
    cost, _ = _planners()
    plan = cost.plan_clause(q, db)
    r_step = next(s for s in plan.steps if s.atom.relation == "R")
    assert r_step.probe == "index"
    assert r_step.semijoins, plan.describe()
    # The filter references S's narrow join column.
    assert any(rel == "S" for _pos, rel, _other in r_step.semijoins)
    _assert_same_grounding(q, db)


def test_projection_fires_only_in_distinct_mode():
    db = _skewed_db(5)
    q = SKEWED_QUERIES[0]  # y, z join through; x is head-only
    cost, _ = _planners()
    lineage_plan = cost.plan_clause(q, db, distinct=False)
    distinct_plan = cost.plan_clause(q, db, distinct=True)
    assert all(step.projection is None for step in lineage_plan.steps)
    # R(x, y) with head [x]: in the Boolean reading nothing is
    # droppable, but for answers_holding the executor may dedup; the
    # planner decides per clause — just pin that the lineage-mode plan
    # never projects and the distinct plan is marked distinct.
    assert distinct_plan.distinct and not lineage_plan.distinct


def test_prebound_equality_binds_before_atoms():
    """``x = c`` turns the first probe into a constant prefetch."""
    db = _skewed_db(9)
    q = query(atom("R", "x", "y"), comparison("x", "=", 5))
    cost, legacy = _planners()
    plan = cost.plan_clause(q, db)
    assert plan.prebound == ((Variable("x"), 5),)
    # The probe on R must use the pre-bound x — an index probe, not a
    # scan filtered after the fact.
    assert plan.steps[0].probe == "index"
    assert plan.steps[0].probe_position == 0
    _assert_same_grounding(q, db)


def test_contradictory_equalities_are_unsatisfiable():
    db = _skewed_db(9)
    q = query(atom("R", "x", "y"), comparison("x", "=", 1),
              comparison("x", "=", 2))
    cost, _ = _planners()
    plan = cost.plan_clause(q, db)
    assert plan.unsatisfiable
    assert find_matches(q, db, plan="cost") == []
    assert find_matches(q, db, plan="legacy") == []


# ----------------------------------------------------------------------
# Satellite: probe prefers an existing index (regression)
# ----------------------------------------------------------------------


def test_probe_prefers_existing_index_on_ties():
    """With two equally selective bound columns, the planner probes the
    one whose per-column index already exists instead of defaulting to
    the lowest position (the seed always took the first in term order,
    degenerating to a scan-like probe through an unindexed column)."""
    db = ProbabilisticDatabase()
    for i in range(64):
        db.add("R", (i % 16, (i * 7) % 16), 0.5)
        db.add("S", (i % 16, (i * 7) % 16), 0.5)
    # Both S columns have 16 distinct values — a perfect tie.  Build
    # the index on column 1 only.
    db.relation("S").index_on(1)
    assert db.relation("S").indexed_positions() == (1,)
    q = query(atom("R", "x", "y"), atom("S", "x", "y"))
    cost, _ = _planners()
    plan = cost.plan_clause(q, db)
    s_step = next(s for s in plan.steps if s.atom.relation == "S")
    assert s_step.probe == "index"
    assert s_step.probe_position == 1  # the indexed column wins the tie
    _assert_same_grounding(q, db)


def test_probe_never_scans_when_a_column_is_bound():
    db = _skewed_db(4)
    q = query(atom("T", "x"), atom("R", "x", "y"), atom("S", "y", "z"))
    cost, _ = _planners()
    plan = cost.plan_clause(q, db)
    # After the first step every later atom joins a bound variable.
    for step in plan.steps[1:]:
        assert step.probe != "scan", plan.describe()


# ----------------------------------------------------------------------
# Satellite: zero-positive-atom clauses with loose variables
# ----------------------------------------------------------------------


def test_predicate_only_clause_with_loose_variables_raises():
    db = ProbabilisticDatabase()
    q = query(comparison("x", "<", "y"))
    with pytest.raises(GroundingError, match="no positive sub-goals"):
        find_matches(q, db)
    # The deterministic path used to die with a raw KeyError here.
    with pytest.raises(GroundingError, match="no positive sub-goals"):
        query_holds(q, db)
    with pytest.raises(ValueError):  # GroundingError is a ValueError
        find_matches(q, db, plan="legacy")


def test_negated_only_clause_raises():
    db = ProbabilisticDatabase()
    db.add("R", (1,), 0.5)
    q = query(atom("R", "x", negated=True))
    with pytest.raises(GroundingError, match="no positive sub-goals"):
        find_matches(q, db)


def test_ground_predicate_only_clause_still_matches():
    """All-ground predicates keep the seed semantics: one empty match
    when they hold, none when they don't."""
    db = ProbabilisticDatabase()
    assert find_matches(query(comparison(1, "<", 2)), db) == [{}]
    assert find_matches(query(comparison(2, "<", 1)), db) == []
    assert query_holds(query(comparison(1, "<", 2)), db)
    assert not query_holds(query(comparison(2, "<", 1)), db)


# ----------------------------------------------------------------------
# Satellite: edge cases the planner must preserve (seeded, 1e-9)
# ----------------------------------------------------------------------

EDGE_QUERIES = [
    # Negated atom sharing no variables with the positives (all
    # constants): its truth is decided per-database, not per-match.
    query(atom("R", "x", "y"), atom("S", 1, 2, negated=True)),
    # Constants in every position of one occurrence of a self-joined
    # relation.
    query(atom("R", 1, 2), atom("R", "x", "y")),
    query(atom("R", 0, 0), atom("R", 0, "y"), atom("R", "y", "z")),
    # Order predicates that bind before any atom does.
    query(atom("R", "x", "y"), atom("S", "y", "z"),
          comparison("x", "=", 1), comparison("z", "!=", 0)),
    query(atom("R", "x", "x"), comparison("x", "=", 2)),
]


@pytest.mark.parametrize("qi", range(len(EDGE_QUERIES)))
@pytest.mark.parametrize("seed", (5, 29))
def test_edge_cases_differential_and_engine_agreement(qi, seed):
    q = EDGE_QUERIES[qi]
    db = random_database_for_query(q, domain_size=4, density=0.6, seed=seed)
    _assert_same_grounding(q, db)
    # Engine agreement through the planned grounding at 1e-9: the WMC
    # oracle vs both circuit backends.
    want = LineageEngine().probability(q, db)
    for mode in ("obdd", "dnnf"):
        got = CompiledEngine(mode=mode).probability(q, db)
        assert got == pytest.approx(want, abs=1e-9)


# ----------------------------------------------------------------------
# Planner mechanics: join graph, cache, metrics, plumbing
# ----------------------------------------------------------------------


def test_join_graph_shape():
    q = query(atom("R", "x", "y"), atom("S", "y", "z"), atom("T", "w"))
    graph = build_join_graph([a for a in q.atoms if not a.negated])
    assert len(graph.atoms) == 3
    assert not graph.is_connected()  # T(w) is its own component
    joined = {(e.left, e.right) for e in graph.edges}
    assert joined == {(0, 1)}
    assert graph.neighbors(0) == frozenset({1})


def test_plan_cache_reuses_across_reweights():
    db = _skewed_db(1)
    q = query(atom("R", "x", "y"), atom("T", "x"))
    cost, _ = _planners()
    cost.plan_clause(q, db)
    assert (cost.cache_hits, cost.cache_misses) == (0, 1)
    cost.plan_clause(q, db)
    assert (cost.cache_hits, cost.cache_misses) == (1, 1)
    # A probability-only reweight keeps structure_version: cache hit.
    row = next(db.relation("R").tuples())
    db.add("R", row, 0.25)
    cost.plan_clause(q, db)
    assert (cost.cache_hits, cost.cache_misses) == (2, 1)
    # A structural insert invalidates.
    db.add("R", (9999, 9999), 0.5)
    cost.plan_clause(q, db)
    assert (cost.cache_hits, cost.cache_misses) == (2, 2)


def test_plan_metrics_recorded():
    registry = MetricsRegistry()
    planner = GroundingPlanner(metrics=registry)
    db = _skewed_db(2)
    q = query(atom("R", "x", "y"), atom("T", "x"))
    ground_lineage(q, db, planner=planner)
    snapshot = str(registry.snapshot())
    assert "repro_grounding_plan_seconds" in snapshot
    assert "repro_grounding_candidates_total" in snapshot


def test_router_decision_exposes_plan():
    db = random_database(SCHEMA, domain_size=4, density=0.6, seed=13)
    router = RouterEngine(mc_samples=200, mc_seed=1)
    q = query(atom("R", "x", "y"), atom("R", "y", "z"))  # unsafe: grounds
    router.probability(q, db)
    decision = router.history[-1]
    assert decision.grounding_plan, decision
    assert "R(" in decision.grounding_plan
    assert "[plan:" in decision.describe()
    # Read as Boolean, a headed query grounds its Boolean body: the
    # decision still carries that plan.
    router.probability(parse("Q(x) :- R(x,y), R(y,z)"), db)
    assert router.history[-1].grounding_plan == decision.grounding_plan
    # A safe query never grounds, so no plan is attached.
    router.probability(query(atom("T", "x")), db)
    assert router.history[-1].grounding_plan is None


def test_session_prepare_warms_plan_cache():
    from repro.serve.session import QuerySession

    db = random_database(SCHEMA, domain_size=4, density=0.6, seed=21)
    session = QuerySession(db)
    prepared = session.prepare(query(atom("R", "x", "y"), atom("R", "y", "z")))
    assert prepared.tier == "unsafe"
    assert prepared.plan  # warmed at prepare time
    planner = session.router.grounding_planner
    hits_before = planner.cache_hits
    session.evaluate(prepared.query)
    assert planner.cache_hits > hits_before  # evaluation reused the plan


def test_find_matches_rejects_bad_plan_argument():
    db = ProbabilisticDatabase()
    db.add("R", (1,), 0.5)
    with pytest.raises(ValueError, match="plan must be"):
        find_matches(query(atom("R", "x")), db, plan="fancy")


def test_find_matches_rejects_unions():
    db = ProbabilisticDatabase()
    db.add("R", (1,), 0.5)
    u = UnionQuery([query(atom("R", "x")), query(atom("S", "x", "y"))])
    with pytest.raises(TypeError):
        find_matches(u, db)
