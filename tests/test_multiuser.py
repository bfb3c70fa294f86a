"""Tests for the multi-user algorithm (Section 4.2)."""

import random

import pytest

from repro.assignments import ExplicitDAG
from repro.crowd import CrowdCache, FixedSampleAggregator
from repro.mining import (
    FunctionUser,
    MultiUserMiner,
    brute_force_msps,
    replay_from_cache,
)


@pytest.fixture()
def dag() -> ExplicitDAG:
    dag = ExplicitDAG()
    edges = [
        (0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5),
        (3, 6), (4, 6), (4, 7), (5, 7),
    ]
    for a, b in edges:
        dag.add_edge(a, b)
    return dag


SIGNIFICANT = {0, 1, 2, 3, 4}


def unanimous_users(count=5):
    return [
        FunctionUser(f"u{i}", lambda n: 1.0 if n in SIGNIFICANT else 0.0)
        for i in range(count)
    ]


class TestConsensus:
    def test_unanimous_crowd_recovers_msps(self, dag):
        aggregator = FixedSampleAggregator(0.5, sample_size=5)
        miner = MultiUserMiner(dag, unanimous_users(5), aggregator)
        result = miner.run()
        assert set(result.msps) == set(
            brute_force_msps(dag, lambda n: n in SIGNIFICANT)
        )

    def test_verdict_needs_sample_size_answers(self, dag):
        aggregator = FixedSampleAggregator(0.5, sample_size=5)
        # only 3 users: no verdict can ever be reached
        miner = MultiUserMiner(dag, unanimous_users(3), aggregator)
        result = miner.run()
        assert result.msps == []
        # each user answered their full traversal once
        assert result.questions > 0

    def test_majority_against_outlier(self, dag):
        # the outlier answers 0 at the root and (per Section 4.2, change 4)
        # is never routed to successors, so five cooperative users are still
        # needed to reach the verdict quota below the root
        aggregator = FixedSampleAggregator(0.5, sample_size=5)
        users = unanimous_users(5) + [FunctionUser("odd", lambda n: 0.0)]
        result = MultiUserMiner(dag, users, aggregator).run()
        assert set(result.msps) == set(
            brute_force_msps(dag, lambda n: n in SIGNIFICANT)
        )

    def test_questions_counted_across_users(self, dag):
        aggregator = FixedSampleAggregator(0.5, sample_size=2)
        users = unanimous_users(2)
        result = MultiUserMiner(dag, users, aggregator).run()
        per_user_total = sum(result.questions_per_user.values())
        assert per_user_total == result.questions

    def test_users_not_asked_about_decided_nodes(self, dag):
        # with sample_size=2 and 6 users, late users skip decided nodes:
        # total answers per node never exceed sample size by much
        aggregator = FixedSampleAggregator(0.5, sample_size=2)
        users = unanimous_users(6)
        result = MultiUserMiner(dag, users, aggregator).run()
        for node in dag.nodes():
            assert aggregator.answer_count(node) <= 3

    def test_max_total_questions(self, dag):
        aggregator = FixedSampleAggregator(0.5, sample_size=5)
        result = MultiUserMiner(
            dag, unanimous_users(5), aggregator, max_total_questions=7
        ).run()
        assert result.questions <= 7

    def test_unwilling_users_stop(self, dag):
        aggregator = FixedSampleAggregator(0.5, sample_size=5)
        users = [
            FunctionUser(f"u{i}", lambda n: 1.0, max_questions=2) for i in range(3)
        ]
        result = MultiUserMiner(dag, users, aggregator).run()
        assert all(q <= 2 for q in result.questions_per_user.values())


class TestCacheAndReplay:
    def test_answers_recorded_in_cache(self, dag):
        cache = CrowdCache()
        aggregator = FixedSampleAggregator(0.5, sample_size=3)
        MultiUserMiner(dag, unanimous_users(3), aggregator, cache=cache).run()
        assert cache.total_answers() > 0

    def test_replay_reproduces_result(self, dag):
        cache = CrowdCache()
        aggregator = FixedSampleAggregator(0.5, sample_size=3)
        users = unanimous_users(3)
        original = MultiUserMiner(dag, users, aggregator, cache=cache).run()

        replayed = replay_from_cache(dag, cache, 0.5, sample_size=3)
        assert set(replayed.msps) == set(original.msps)

    def test_replay_at_higher_threshold_uses_fewer_answers(self, dag):
        # supports: significant nodes get graded values so that raising the
        # threshold shrinks the significant region
        supports = {0: 0.9, 1: 0.7, 2: 0.7, 3: 0.45, 4: 0.45}

        def fn(node):
            return supports.get(node, 0.0)

        cache = CrowdCache()
        users = [FunctionUser(f"u{i}", fn) for i in range(3)]
        low = MultiUserMiner(
            dag, users, FixedSampleAggregator(0.4, sample_size=3), cache=cache
        ).run()

        high = replay_from_cache(dag, cache, 0.6, sample_size=3)
        assert high.questions <= low.questions
        assert set(high.msps) == {1, 2}


class TestSpecializationAndPruning:
    def test_specialization_answers_counted(self, dag):
        class SpecUser(FunctionUser):
            def wants_specialization(self):
                return True

            def choose_specialization(self, node, candidates):
                for candidate in candidates:
                    if candidate in SIGNIFICANT:
                        return (candidate, 1.0)
                return None

        aggregator = FixedSampleAggregator(0.5, sample_size=2)
        users = [
            SpecUser(f"u{i}", lambda n: 1.0 if n in SIGNIFICANT else 0.0)
            for i in range(2)
        ]
        result = MultiUserMiner(dag, users, aggregator).run()
        assert result.stats.specialization > 0
        assert set(result.msps) == set(
            brute_force_msps(dag, lambda n: n in SIGNIFICANT)
        )

    def test_none_of_these_zeroes_candidates(self, dag):
        class NoneUser(FunctionUser):
            def wants_specialization(self):
                return True

            def choose_specialization(self, node, candidates):
                return None

        aggregator = FixedSampleAggregator(0.5, sample_size=2)
        users = [NoneUser(f"u{i}", lambda n: 1.0 if n == 0 else 0.0) for i in range(2)]
        result = MultiUserMiner(dag, users, aggregator).run()
        assert result.stats.none_of_these > 0
        # root significant, all its successors zeroed -> root is the MSP
        assert result.msps == [0]

    def test_pruning_click_stats_and_effect(self, dag):
        class PruneUser(FunctionUser):
            def __init__(self, member_id, fn):
                super().__init__(member_id, fn)
                self._pruned = False

            def prune_value(self, node):
                if node == 1 and not self._pruned:
                    self._pruned = True
                    return "token-1"
                return None

            def matches_prune(self, node, token):
                return token == "token-1" and node in {1, 3, 4, 6, 7}

        aggregator = FixedSampleAggregator(0.5, sample_size=2)
        users = [
            PruneUser(f"u{i}", lambda n: 1.0 if n in SIGNIFICANT else 0.0)
            for i in range(2)
        ]
        result = MultiUserMiner(dag, users, aggregator).run()
        assert result.stats.pruning_clicks == 2
        # the pruning click answers node 1 with support 0 for both users
        assert aggregator.average_support(1) == 0.0
