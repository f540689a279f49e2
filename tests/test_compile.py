"""Unit tests for the knowledge-compilation subsystem."""

import itertools
import random
from fractions import Fraction

import pytest

from repro.compile import (
    BudgetExceeded,
    Circuit,
    CircuitCache,
    compile_dnnf,
    compile_obdd,
    make_order,
    model_count,
    probability,
)
from repro.compile.obdd import FALSE, TRUE, OBDD
from repro.core import parse
from repro.db import (
    ProbabilisticDatabase,
    random_database_for_query,
    star_join_instance,
)
from repro.engines.compiled import canonicalize_lineage
from repro.lineage.boolean import Lineage, make_lineage
from repro.lineage.grounding import ground_answer_lineages, ground_lineage
from repro.lineage.wmc import exact_probability


def _lineage(clauses, weights):
    return make_lineage(clauses, weights)


def _simple_lineage():
    # (a ∧ b) ∨ (b ∧ c): the classic shared-variable DNF.
    a, b, c = ("R", (1,)), ("R", (2,)), ("R", (3,))
    weights = {a: 0.5, b: 0.4, c: 0.8}
    return _lineage([[(a, True), (b, True)], [(b, True), (c, True)]], weights)


def _brute_force_probability(lineage: Lineage) -> float:
    events = sorted(lineage.events(), key=str)
    total = 0.0
    for values in itertools.product([False, True], repeat=len(events)):
        world = dict(zip(events, values))
        if any(
            all(world[key] == polarity for key, polarity in clause)
            for clause in lineage.clauses
        ):
            weight = 1.0
            for event, value in world.items():
                w = lineage.weights[event]
                weight *= w if value else 1.0 - w
            total += weight
    return total


# ----------------------------------------------------------------------
# Circuit IR
# ----------------------------------------------------------------------


class TestCircuit:
    def test_interning_shares_structure(self):
        c = Circuit()
        x = c.literal("x")
        y = c.literal("y")
        assert c.conjoin([x, y]) == c.conjoin([y, x])
        assert c.literal("x") == x
        size_before = len(c)
        c.conjoin([x, y])
        assert len(c) == size_before

    def test_constant_folding(self):
        c = Circuit()
        x = c.literal("x")
        assert c.conjoin([x, c.TRUE]) == x
        assert c.conjoin([x, c.FALSE]) == c.FALSE
        assert c.disjoin([x, c.FALSE]) == x
        assert c.disjoin([x, c.TRUE]) == c.TRUE
        assert c.conjoin([]) == c.TRUE
        assert c.disjoin([]) == c.FALSE

    def test_complement_collapse(self):
        c = Circuit()
        x, nx = c.literal("x", True), c.literal("x", False)
        assert c.conjoin([x, nx]) == c.FALSE
        assert c.disjoin([x, nx]) == c.TRUE
        assert c.negate(c.negate(x)) == x
        assert c.negate(x) == nx

    def test_flattening(self):
        c = Circuit()
        x, y, z = (c.literal(v) for v in "xyz")
        nested = c.conjoin([x, c.conjoin([y, z])])
        assert nested == c.conjoin([x, y, z])

    def test_topological_orders_children_first(self):
        c = Circuit()
        x, y = c.literal("x"), c.literal("y")
        root = c.disjoin([c.conjoin([x, y]), c.negate(c.conjoin([x, y]))])
        order = c.topological(root)
        position = {node: i for i, node in enumerate(order)}
        for node in order:
            for child in c.children(node):
                assert position[child] < position[node]

    def test_decomposability_check(self):
        c = Circuit()
        x, y = c.literal("x"), c.literal("y")
        good = c.conjoin([x, y])
        assert c.is_decomposable(good)
        bad = c.conjoin([x, c.disjoin([c.literal("x", False), y])])
        assert not c.is_decomposable(bad)


# ----------------------------------------------------------------------
# Orderings
# ----------------------------------------------------------------------


class TestOrdering:
    def test_all_strategies_are_permutations_of_events(self):
        q = parse("R(x), S(x,y), T(y)")
        db = random_database_for_query(q, 3, density=0.8, seed=0)
        lin = ground_lineage(q, db)
        for strategy in ("lineage", "hierarchy", "auto"):
            name, order = make_order(lin, strategy, q)
            assert set(order) == set(lin.events())
            assert len(order) == lin.variable_count

    def test_auto_picks_hierarchy_for_hierarchical_query(self):
        q = parse("R(x), S(x,y)")
        db = star_join_instance(3, 2, seed=1)
        lin = ground_lineage(q, db)
        name, _ = make_order(lin, "auto", q)
        assert name == "hierarchy"

    def test_auto_without_query_picks_lineage(self):
        lin = _simple_lineage()
        name, _ = make_order(lin, "auto", None)
        assert name == "lineage"

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError):
            make_order(_simple_lineage(), "alphabetical")

    def test_hierarchy_order_groups_by_root_value(self):
        q = parse("R(x), S(x,y)")
        db = star_join_instance(4, 3, seed=2)
        lin = ground_lineage(q, db)
        name, order = make_order(lin, "hierarchy", q)
        # All events for one root value x must be contiguous.
        roots = [row[0] for _name, row in order]
        seen = set()
        previous = None
        for root in roots:
            if root != previous:
                assert root not in seen
                seen.add(root)
                previous = root


# ----------------------------------------------------------------------
# OBDD
# ----------------------------------------------------------------------


class TestOBDD:
    def test_reduction_rules(self):
        bdd = OBDD([("R", (1,)), ("R", (2,))])
        lit = bdd.literal(("R", (1,)))
        assert bdd.mk(0, lit, lit) == lit  # low == high collapses
        assert bdd.mk(0, FALSE, TRUE) == lit  # unique table shares

    def test_apply_matches_bruteforce(self):
        lin = _simple_lineage()
        result = compile_obdd(lin)
        assert result.probability(lin.weights) == pytest.approx(
            _brute_force_probability(lin), abs=1e-12
        )

    def test_hierarchical_lineage_compiles_linear(self):
        q = parse("R(x), S(x,y)")
        sizes = {}
        for fanout in (4, 8, 16):
            db = star_join_instance(fanout, 3, seed=0)
            lin = ground_lineage(q, db)
            result = compile_obdd(lin, "hierarchy", q)
            sizes[fanout] = result.size
        # Linear growth: doubling the instance ~doubles the OBDD.
        assert sizes[16] <= 4.5 * sizes[4]

    def test_budget_exceeded(self):
        q = parse("R(x), S(x,y), T(y)")
        db = random_database_for_query(q, 3, density=0.8, seed=0)
        lin = ground_lineage(q, db)
        with pytest.raises(BudgetExceeded):
            compile_obdd(lin, max_nodes=2)

    def test_compiled_result_keeps_only_its_live_nodes(self):
        q = parse("R(x), S(x,y), T(y)")
        db = random_database_for_query(q, 3, density=0.8, seed=0)
        lin = ground_lineage(q, db)
        assert lin.clause_count() > 1
        result = compile_obdd(lin)
        bdd = result.obdd
        # The unique table holds the live nodes and the two terminals;
        # the intermediate Apply results are gone.
        assert len(bdd) == result.size + 2
        assert result.peak_nodes > len(bdd)
        assert result.probability(lin.weights) == pytest.approx(
            exact_probability(lin), abs=1e-9
        )
        for node in bdd.reachable(result.root):
            if node not in (FALSE, TRUE):
                assert bdd.mk(*bdd._nodes[node]) == node
        assert len(bdd) == result.size + 2

    def test_star_answer_lineage_compiles_linear(self):
        # One answer's lineage: G(0,a) is in every clause, each x has
        # four private y's — 20 clauses over 51 events.  The session
        # compiles it canonicalized, with no query hint.
        rng = random.Random(0)
        db = ProbabilisticDatabase()
        db.add("G", (0, "a"), 0.7)
        y = 0
        for x in range(5):
            db.add("A", ("a", x), rng.uniform(0.1, 0.9))
            db.add("R", (x,), rng.uniform(0.1, 0.9))
            for _ in range(4):
                db.add("S", (x, y), rng.uniform(0.1, 0.9))
                db.add("T", (y,), rng.uniform(0.1, 0.9))
                y += 1
        q = parse("Q(a) :- G(0, a), A(a,x), R(x), S(x,y), T(y)")
        (lin,) = ground_answer_lineages(q, db).values()
        assert (lin.clause_count(), lin.variable_count) == (20, 51)
        canonical, weights, _renaming = canonicalize_lineage(lin)
        result = compile_obdd(canonical)
        assert result.size <= 4 * canonical.clause_count()
        assert result.probability(weights) == pytest.approx(
            exact_probability(lin), abs=1e-9
        )

    def test_model_count_matches_enumeration(self):
        lin = _simple_lineage()
        result = compile_obdd(lin)
        events = sorted(lin.events(), key=str)
        count = 0
        for values in itertools.product([False, True], repeat=len(events)):
            world = dict(zip(events, values))
            if any(
                all(world[k] == pol for k, pol in clause)
                for clause in lin.clauses
            ):
                count += 1
        assert result.model_count() == count

    def test_to_circuit_preserves_probability(self):
        lin = _simple_lineage()
        result = compile_obdd(lin)
        circuit, root = result.obdd.to_circuit(result.root)
        assert circuit.is_decomposable(root)
        assert probability(circuit, root, lin.weights) == pytest.approx(
            result.probability(lin.weights), abs=1e-12
        )

    def test_trivial_lineages(self):
        true_lin = Lineage(frozenset(), {}, certainly_true=True)
        false_lin = Lineage(frozenset(), {})
        assert compile_obdd(true_lin).probability({}) == 1.0
        assert compile_obdd(false_lin).probability({}) == 0.0


# ----------------------------------------------------------------------
# d-DNNF
# ----------------------------------------------------------------------


class TestDNNF:
    def test_matches_bruteforce(self):
        lin = _simple_lineage()
        result = compile_dnnf(lin)
        assert result.probability(lin.weights) == pytest.approx(
            _brute_force_probability(lin), abs=1e-12
        )

    def test_circuit_is_decomposable(self):
        q = parse("R(x), S(x,y), T(y)")
        db = random_database_for_query(q, 3, density=0.8, seed=2)
        lin = ground_lineage(q, db)
        result = compile_dnnf(lin, q)
        assert result.circuit.is_decomposable(result.root)

    def test_budget_exceeded(self):
        q = parse("R(x), S(x,y), T(y)")
        db = random_database_for_query(q, 4, density=0.8, seed=0)
        lin = ground_lineage(q, db)
        with pytest.raises(BudgetExceeded):
            compile_dnnf(lin, max_nodes=3)

    def test_independent_components_share_no_pivots(self):
        # Two disjoint clauses: pure component split, no Shannon pivot.
        a, b, c, d = (("R", (i,)) for i in range(4))
        lin = _lineage(
            [[(a, True), (b, True)], [(c, True), (d, True)]],
            {a: 0.3, b: 0.5, c: 0.6, d: 0.9},
        )
        result = compile_dnnf(lin)
        assert result.pivots == 0
        assert result.probability(lin.weights) == pytest.approx(
            _brute_force_probability(lin), abs=1e-12
        )


# ----------------------------------------------------------------------
# Evaluation services
# ----------------------------------------------------------------------


class TestEvaluate:
    def test_exact_rational_evaluation(self):
        lin = _simple_lineage()
        result = compile_dnnf(lin)
        weights = {k: Fraction(1, 2) for k in lin.events()}
        value = probability(result.circuit, result.root, weights)
        assert isinstance(value, Fraction)
        assert value == Fraction(
            model_count(result.circuit, result.root, lin.events()),
            2 ** lin.variable_count,
        )


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------


class TestCircuitCache:
    def test_key_ignores_weights(self):
        a, b = ("R", (1,)), ("R", (2,))
        lin1 = _lineage([[(a, True), (b, True)]], {a: 0.1, b: 0.2})
        lin2 = _lineage([[(a, True), (b, True)]], {a: 0.8, b: 0.9})
        key1 = CircuitCache.key_for(lin1, "obdd", "auto")
        key2 = CircuitCache.key_for(lin2, "obdd", "auto")
        assert key1 == key2

    def test_lru_eviction(self):
        cache = CircuitCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_stats_format(self):
        cache = CircuitCache(maxsize=4)
        cache.put("k", "v")
        cache.get("k")
        cache.get("missing")
        assert "1 hits / 1 misses" in cache.stats()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCompileCLI:
    def test_compile_command(self, tmp_path, capsys):
        import json

        from repro.cli import main

        data = {
            "R": [[[1], 0.5], [[2], 0.6]],
            "S": [[[1, 1], 0.4], [[1, 2], 0.7], [[2, 1], 0.3]],
            "T": [[[1], 0.5], [[2], 0.9]],
        }
        path = tmp_path / "db.json"
        path.write_text(json.dumps(data))
        assert main(["compile", "R(x), S(x,y), T(y)", str(path)]) == 0
        out = capsys.readouterr().out
        assert "circuit" in out
        assert "ordering=" in out
        assert "p(q) = " in out

    def test_unknown_ordering_is_a_usage_error(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path = tmp_path / "db.json"
        path.write_text(json.dumps({"R": [[[1], 0.5]]}))
        with pytest.raises(SystemExit) as exit_info:
            main(["compile", "R(x)", str(path), "--ordering", "alphabetical"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'alphabetical'" in err
        assert "compilation failed" not in err

    def test_evaluate_reports_fallback_reason(self, tmp_path, capsys):
        import json

        from repro.cli import main

        data = {
            "R": [[[1], 0.5]],
            "S": [[[1, 1], 0.4]],
            "T": [[[1], 0.5]],
        }
        path = tmp_path / "db.json"
        path.write_text(json.dumps(data))
        assert main(["evaluate", "R(x), S(x,y), T(y)", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fallback:" in out
