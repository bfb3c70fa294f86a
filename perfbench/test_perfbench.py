"""Tests of the benchmark itself: its oracles and its repeatability.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q

The repeatability tests start real workload interpreters (under a
minute in all); ``-k Oracles`` runs only the fast oracle tests.
"""

from __future__ import annotations

import pytest

from oracles import check_identity, check_planted, check_travel_batch
from probe import REFERENCE_S, speed_factor
from run import WORKLOADS, Runner, partition_problems


def _aggregator():
    from repro.crowd.aggregator import FixedSampleAggregator

    return FixedSampleAggregator(0.5, sample_size=2)


ANSWERS = {
    "msp": [("m1", 1.0), ("m2", 0.8)],
    "child": [("m1", 0.0), ("m2", 0.2)],
}
SUCCESSORS = {"msp": ["child"], "child": []}


class TestOracles:
    def test_travel_batch_accepts_a_correct_result(self):
        problems = check_travel_batch(
            ["msp"], lambda n: ANSWERS.get(n, []), SUCCESSORS.__getitem__, _aggregator
        )
        assert problems == []

    def test_travel_batch_rejects_an_insignificant_msp(self):
        corrupted = dict(ANSWERS, msp=[("m1", 0.1), ("m2", 0.2)])
        problems = check_travel_batch(
            ["msp"], lambda n: corrupted.get(n, []), SUCCESSORS.__getitem__, _aggregator
        )
        assert any("not significant" in p for p in problems)

    def test_travel_batch_rejects_a_significant_successor(self):
        corrupted = dict(ANSWERS, child=[("m1", 0.9), ("m2", 0.9)])
        problems = check_travel_batch(
            ["msp"], lambda n: corrupted.get(n, []), SUCCESSORS.__getitem__, _aggregator
        )
        assert any("successor" in p for p in problems)

    def test_travel_batch_rejects_an_empty_result(self):
        assert check_travel_batch([], lambda n: [], SUCCESSORS.__getitem__, _aggregator)

    def test_planted_set_must_match(self):
        assert check_planted([1, 2, 3], [3, 2, 1]) == []
        assert check_planted([1, 2], [1, 2, 3])
        assert check_planted([1, 2, 3, 4], [1, 2, 3])

    def test_serving_identity_must_hold_per_session(self):
        serial = {"a": ["x", "y"], "b": ["z"]}
        assert check_identity({"a": ["y", "x"], "b": ["z"]}, serial) == []
        assert check_identity({"a": ["x"], "b": ["z"]}, serial)
        assert check_identity({"c": ["z"]}, serial)

    def test_a_corrupted_workload_result_fails_its_run(self):
        import workloads

        workload = workloads.PaperDag(seed=5, seconds=1, tracer=None)
        try:
            workload.setup()
            _, planted = workload.inputs[0]
            planted.msps.pop()  # the planted set no longer matches the mined one
            workload.check([workload.execute(0)])
        finally:
            workload.close()
        assert workload.failures and workload.attempted == 1


class TestPartition:
    PARTS = {"mining": 0.6, "assignments": 0.3, "gateway.transport": 0.0, "unattributed": 0.1}

    def test_parts_that_add_up_pass(self):
        assert partition_problems(self.PARTS, 1.0) == []

    def test_parts_that_miss_the_wall_fail(self):
        assert partition_problems(self.PARTS, 1.2)

    def test_overlapping_spans_fail_even_when_the_parts_add_up(self):
        # a span counted twice inflates a layer and drives the remainder
        # below zero; the sum still matches the wall
        parts = dict(self.PARTS, mining=1.2, unattributed=-0.5)
        problems = partition_problems(parts, 1.0)
        assert any("unattributed is negative" in p for p in problems)
        parts = dict(self.PARTS, **{"gateway.transport": -0.2, "unattributed": 0.3})
        assert any("gateway.transport is negative" in p for p in partition_problems(parts, 1.0))


def test_speed_factor_scales_to_the_reference():
    assert speed_factor([REFERENCE_S, REFERENCE_S]) == pytest.approx(1.0)
    # a machine half as fast: its times are halved
    assert speed_factor([2 * REFERENCE_S, 2 * REFERENCE_S]) == pytest.approx(0.5)


def _counts(workload, layers):
    """The per-layer metrics that are exact counts and must repeat."""
    counts = {
        name: value
        for name, value in layers.items()
        if "_calls_" in name
        or "_bytes_" in name
        or name.endswith("_per_frame")
        or name in ("sparql.solutions", "gateway.requests_per_question")
    }
    if workload == "shard-travel":
        # the coordinator loop asks has_fresh_work, and so status, on
        # every idle turn while it waits for deltas: a timing, not a count
        del counts["mining.status_calls_per_question"]
    return counts


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_seed_repeats_exactly(workload):
    runner = Runner(workload, seed=7, seconds=1)
    first, second = runner.child("traced"), runner.child("traced")
    for report in (first, second):
        assert report["failed"] == 0, report["failures"]
        assert report["attempted"] > 0
    questions = [[unit[0]["questions"] for unit in report["units"]] for report in (first, second)]
    assert questions[0] == questions[1] and sum(questions[0]) > 0
    assert first["msps"] == second["msps"]
    assert _counts(workload, first["layers"]) == _counts(workload, second["layers"])
