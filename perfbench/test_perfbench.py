"""Unit tests for the benchmark's own arithmetic and oracle.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402
from stats import Outcome, SpanRecord  # noqa: E402


# -- percentiles -------------------------------------------------------


def test_nearest_rank_percentile_is_an_observed_value():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.95) == 95
    assert stats.percentile(values, 1.0) == 100
    assert stats.percentile([7.0], 0.95) == 7.0


def test_percentile_ignores_input_order():
    assert stats.percentile([5, 1, 4, 2, 3], 0.5) == 3


def test_ten_samples_beyond_rule():
    # p95 of 200 samples is the 190th value: exactly ten lie above it.
    assert stats.samples_beyond(200, 0.95) == 10
    assert stats.supported(200, 0.95)
    assert not stats.supported(199, 0.95)
    assert stats.min_samples(0.95) == 200
    assert stats.min_samples(0.5) == 20
    assert not stats.supported(0, 0.5)


def test_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.rank(0, 0.5)
    with pytest.raises(ValueError):
        stats.rank(10, 0.0)


# -- failure accounting --------------------------------------------------


def test_failed_frac_counts_sheds_errors_and_wrong_answers():
    outcomes = [
        Outcome("evaluate", 0.001, 200, correct=True),
        Outcome("evaluate", 0.001, 200),               # unchecked update-like
        Outcome("evaluate", 0.001, 503),               # shed at admission
        Outcome("answers", 0.001, None),               # transport error
        Outcome("answers", 0.001, 200, correct=False),  # wrong exact answer
        Outcome("update", 0.001, 400),
    ]
    failed, attempted, frac = stats.failed_frac(outcomes)
    assert (failed, attempted) == (4, 6)
    assert frac == pytest.approx(4 / 6)


def test_shed_503_counts_as_failed():
    assert stats.is_failed(Outcome("evaluate", 0.0, 503))
    assert not stats.is_failed(Outcome("evaluate", 0.0, 200, correct=True))


def test_failed_frac_of_nothing():
    assert stats.failed_frac([]) == (0, 0, 0.0)


# -- self time -------------------------------------------------------------


def test_union_length_merges_overlaps():
    assert stats.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert stats.union_length([(0, 1), (1, 2)]) == 2
    assert stats.union_length([]) == 0
    assert stats.union_length([(3, 3)]) == 0


def test_self_time_subtracts_union_not_sum():
    # Two overlapping children (coalesced/threaded calls) cover [2, 8];
    # summing their lengths would subtract 10 and leave no self time.
    assert stats.self_time(0, 10, [(2, 7), (3, 8)]) == pytest.approx(4)


def test_self_time_clips_children_to_parent():
    assert stats.self_time(0, 10, [(-5, 2), (9, 20)]) == pytest.approx(7)
    assert stats.self_time(0, 10, []) == pytest.approx(10)


def test_layer_totals_nest():
    spans = [
        SpanRecord("request", "client", 0.0, 10.0, None, 1),
        SpanRecord("evaluate", "pool", 1.0, 9.0, 0, 1),
        SpanRecord("evaluate_many", "session", 2.0, 8.0, 1, 1),
        SpanRecord("plan_query", "router", 2.0, 3.0, 2, 1),
        SpanRecord("safe", "safe_plan", 2.5, 6.0, 2, 1),  # overlaps router
    ]
    totals = stats.layer_totals(spans)
    assert totals["client"] == {"calls": 1, "self_s": pytest.approx(2.0)}
    assert totals["pool"]["self_s"] == pytest.approx(2.0)
    assert totals["session"]["self_s"] == pytest.approx(2.0)  # 6 - [2, 6]
    assert totals["router"]["self_s"] == pytest.approx(1.0)
    assert totals["safe_plan"]["self_s"] == pytest.approx(3.5)


# -- oracle ------------------------------------------------------------------


def test_biclique_oracle_matches_weighted_model_counting():
    pytest.importorskip("repro")
    import oracle
    import workloads
    from repro.core.parser import parse
    from repro.db.database import ProbabilisticDatabase
    from repro.lineage.grounding import ground_lineage
    from repro.lineage.wmc import exact_probability

    workload = workloads.unsafe_mc(5, blocks=2, side=3)
    db = ProbabilisticDatabase.from_dict(oracle.client_spec(workload.spec, 1))
    for kind, body in workload.warmup[1]:
        client, anchor = oracle.anchor_of(body["query"])
        assert client == 1
        lineage = ground_lineage(parse(body["query"]).boolean(), db)
        assert oracle.anchor_probability(db, 1, anchor) == pytest.approx(
            exact_probability(lineage), abs=1e-12)


def test_answer_check_requires_a_top_set():
    import oracle

    expected = {(1,): 0.9, (2,): 0.5, (3,): 0.1}
    best = [{"answer": [1], "probability": 0.9}]
    assert oracle.check("answers", best, expected, 1, 1e-9)[0]
    wrong = [{"answer": [2], "probability": 0.5}]
    assert not oracle.check("answers", wrong, expected, 1, 1e-9)[0]
    off = [{"answer": [1], "probability": 0.8}]
    assert not oracle.check("answers", off, expected, 1, 1e-9)[0]
    assert oracle.check("evaluate", 0.25, 0.25 + 1e-12, None, 1e-9)[0]
