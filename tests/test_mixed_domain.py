"""Predicates over an active domain that mixes ints and strs.

Python cannot order ``'1'`` against ``3``, so every engine needs the
same cross-type rule (:func:`repro.core.predicates.value_less`: native
order within a type, else type name then text).  The safe plan once
compared such a pair by ``str()`` alone and read ``R(x), x < 3`` as 0.5
over ``{'1': 0.5, 7: 0.25}``, where grounding, lifted inference and
brute force read 0.0.  Lineage-WMC is the oracle throughout.
"""

import random

import pytest

from repro.core import parse
from repro.core.atoms import Atom
from repro.core.predicates import Comparison, value_less
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Constant, Variable
from repro.db import ProbabilisticDatabase
from repro.engines import (
    BruteForceEngine,
    CompiledEngine,
    LiftedEngine,
    LineageEngine,
    RouterEngine,
    SafePlanEngine,
)
from repro.serve import QuerySession

oracle = LineageEngine()

EXACT_ENGINES = {
    "safe-plan": SafePlanEngine(),
    "lifted": LiftedEngine(),
    "compiled": CompiledEngine(),
    "brute-force": BruteForceEngine(),
    "router": RouterEngine(exact_fallback=True),
}


def read(engine, text, db):
    """``p(q)`` of a Boolean query, or the ranking of a headed one."""
    query = parse(text)
    if query.head is None:
        return engine.probability(query, db)
    return engine.answers(query, db)


def session_read(text, db):
    session = QuerySession(db.copy(), exact_fallback=True)
    if parse(text).head is None:
        return session.evaluate(text)
    return session.answers(text)


def test_the_rule_orders_ints_before_strs():
    assert not value_less("1", 3) and value_less(3, "1")
    assert value_less(3, 7) and value_less("10", "9")


def test_int_and_float_constants_order_by_value():
    # Constant's canonical sort key puts every float before every int;
    # satisfiability once took it for the domain order and read
    # ``1 < x < 1.5`` as unsatisfiable.
    x = Variable("x")
    query = ConjunctiveQuery(
        (Atom("R", (x,)),),
        (Comparison("<", Constant(1), x), Comparison("<", x, Constant(1.5))),
    )
    db = ProbabilisticDatabase.from_dict({"R": {(1.2,): 0.5}})
    assert query.is_satisfiable()
    for engine in (oracle, *EXACT_ENGINES.values()):
        assert engine.probability(query, db) == pytest.approx(0.5, abs=1e-9)


class TestMinimalRepro:
    DB = {"R": {("1",): 0.5, (7,): 0.25}}

    @pytest.mark.parametrize("text, expected", [
        ("R(x), x < 3", 0.0),
        ("Q(x) :- R(x), x < 3", []),
    ])
    @pytest.mark.parametrize("name", [*EXACT_ENGINES, "session"])
    def test_every_exact_reader_agrees(self, name, text, expected):
        db = ProbabilisticDatabase.from_dict(self.DB)
        assert read(oracle, text, db) == expected
        got = (
            session_read(text, db) if name == "session"
            else read(EXACT_ENGINES[name], text, db)
        )
        assert got == expected


DOMAIN = [0, 1, 2, 3, "0", "1", "2", "3"]
CONSTANTS = ["2", "'2'", "0", "'3'"]

#: Safe templates: the safe plan and lifted inference admit them.
SAFE = [
    "R(x), x < {c}",
    "R(x), {c} < x",
    "R(x), x = {c}",
    "R(x), x != {c}",
    "R(x), S(x,y), y < {c}",
    "R(x), S(x,y), x != {c}",
    "Q(x) :- R(x), S(x,y), y < {c}",
    "Q(y) :- S(x,y), x = {c}",
]
#: #P-hard templates: only grounding engines read them exactly.
UNSAFE = [
    "R(x), S(x,y), T(y), y < {c}",
    "Q(x) :- R(x), S(x,y), T(y), x != {c}",
]


def mixed_db(seed: int) -> ProbabilisticDatabase:
    rng = random.Random(seed)

    def weight() -> float:
        return round(rng.uniform(0.1, 0.9), 3)

    return ProbabilisticDatabase.from_dict({
        "R": {(v,): weight() for v in DOMAIN if rng.random() < 0.6},
        "S": {
            (u, v): weight()
            for u in DOMAIN for v in DOMAIN if rng.random() < 0.15
        },
        "T": {(v,): weight() for v in DOMAIN if rng.random() < 0.6},
    })


def assert_agrees(got, want, label):
    if isinstance(want, float):
        assert got == pytest.approx(want, abs=1e-9), label
        return
    assert [answer for answer, _ in got] == [
        answer for answer, _ in want
    ], label
    for (_, p), (_, q) in zip(got, want):
        assert p == pytest.approx(q, abs=1e-9), label


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_sweep_agrees_with_wmc(seed):
    db = mixed_db(seed)
    readers = {
        name: EXACT_ENGINES[name]
        for name in ("safe-plan", "lifted", "compiled")
    }
    for template in SAFE + UNSAFE:
        for constant in CONSTANTS:
            text = template.format(c=constant)
            want = read(oracle, text, db)
            names = readers if template in SAFE else ["compiled"]
            for name in names:
                got = read(readers[name], text, db)
                assert_agrees(got, want, (seed, name, text))
            assert_agrees(
                session_read(text, db), want, (seed, "session", text)
            )
