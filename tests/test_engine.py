"""End-to-end engine tests: parse → mine → results, replay, queue manager."""

import pytest

from repro import CrowdCache, CrowdMember, EngineConfig, OassisEngine
from repro.datasets import running_example
from repro.mining.vertical import find_minimal_unclassified
from repro.oassisql import ValidationError
from repro.vocabulary import Element


def E(name):
    return Element(name)


class AverageMember(CrowdMember):
    """The paper's ``u_avg``: answers with the average of u1 and u2."""

    def __init__(self, member_id, databases, vocabulary):
        from repro.crowd import PersonalDatabase

        super().__init__(member_id, PersonalDatabase(), vocabulary)
        self._databases = databases

    def true_support(self, fact_set):
        supports = [
            db.support(fact_set, self.vocabulary)
            for db in self._databases.values()
        ]
        return sum(supports) / len(supports)


@pytest.fixture(scope="module")
def setting():
    ontology = running_example.build_ontology()
    dbs = running_example.build_personal_databases()
    engine = OassisEngine(
        ontology, config=EngineConfig(max_values_per_var=2, max_more_facts=1)
    )
    vocab = ontology.vocabulary
    # five u_avg members so the 5-answer aggregator can decide (Example 4.6)
    members = [AverageMember(f"avg-{i}", dbs, vocab) for i in range(5)]
    return engine, members


class TestParse:
    def test_parse_validates(self, setting):
        engine, _ = setting
        query = engine.parse(running_example.SAMPLE_QUERY)
        assert query.threshold == 0.4

    def test_parse_rejects_unknown_terms(self, setting):
        engine, _ = setting
        with pytest.raises(ValidationError):
            engine.parse(
                "SELECT FACT-SETS WHERE $x inside Paris "
                "SATISFYING $x doAt NYC WITH SUPPORT = 0.3"
            )


class TestExecute:
    @pytest.fixture(scope="class")
    def result(self, setting):
        engine, members = setting
        return engine.execute(
            running_example.FRAGMENT_QUERY, members, sample_size=5
        )

    def test_expected_msps_found(self, result):
        found = {
            tuple(sorted((k, tuple(v)) for k, v in row.variables().items()))
            for row in result
        }
        expected_biking = (("x", ("Central Park",)), ("y", ("Biking",)))
        expected_monkey = (("x", ("Bronx Zoo",)), ("y", ("Feed a monkey",)))
        assert tuple(sorted(expected_biking)) in found
        assert tuple(sorted(expected_monkey)) in found

    def test_supports_reported(self, result):
        for row in result:
            assert row.support is not None
            assert row.support >= 0.4

    def test_render_mentions_facts(self, result):
        text = result.render()
        assert "doAt" in text
        assert "question" in text

    def test_rows_only_valid_by_default(self, result):
        assert all(row.valid for row in result)


class TestSingleUser:
    def test_execute_single_user(self, setting):
        engine, members = setting
        result = engine.execute_single_user(
            running_example.FRAGMENT_QUERY, members[0]
        )
        bindings = [row.variables() for row in result]
        assert {"x": ["Central Park"], "y": ["Biking"]} in bindings

    def test_single_user_supports_are_personal(self, setting):
        engine, members = setting
        result = engine.execute_single_user(
            running_example.FRAGMENT_QUERY, members[0]
        )
        for row in result:
            assert row.support == pytest.approx(row.support, abs=1e-9)


class TestReplay:
    def test_threshold_replay_uses_cache(self, setting):
        engine, members = setting
        cache = CrowdCache()
        base = engine.execute(
            running_example.FRAGMENT_QUERY, members, sample_size=5, cache=cache
        )
        member_ids = [m.member_id for m in members]
        replayed, mined = engine.replay(
            running_example.FRAGMENT_QUERY,
            member_ids,
            cache,
            threshold=0.45,
            sample_size=5,
        )
        assert mined.questions <= base.questions
        # at 0.45, Ball Game at Central Park (avg 5/12 ~ 0.417) drops out
        bindings = [row.variables() for row in replayed]
        assert {"x": ["Central Park"], "y": ["Ball Game"]} not in bindings


class TestQueueManager:
    def test_interactive_flow(self, setting):
        engine, members = setting
        qm = engine.queue_manager(running_example.FRAGMENT_QUERY, sample_size=1)
        member = members[0]
        answered = 0
        while answered < 500:
            question = qm.next_question(member.member_id)
            if question is None:
                break
            support = member.true_support(
                qm.space.instantiate(question.assignment)
            )
            qm.submit_support(member.member_id, support)
            answered += 1
        assert find_minimal_unclassified(qm.space, qm.state) is None
        msps = qm.current_msps()
        vocab = qm.space.vocabulary
        from repro.assignments import Assignment

        assert Assignment.make(
            vocab, {"x": {E("Central Park")}, "y": {E("Biking")}}
        ) in msps

    def test_pending_question_returned_again(self, setting):
        engine, members = setting
        qm = engine.queue_manager(running_example.FRAGMENT_QUERY, sample_size=1)
        first = qm.next_question("u")
        second = qm.next_question("u")
        assert first is second

    def test_submit_without_pending_raises(self, setting):
        engine, _ = setting
        qm = engine.queue_manager(running_example.FRAGMENT_QUERY)
        with pytest.raises(RuntimeError):
            qm.submit_support("ghost", 0.5)

    def test_question_text_is_natural_language(self, setting):
        engine, _ = setting
        qm = engine.queue_manager(running_example.FRAGMENT_QUERY)
        question = qm.next_question("u")
        assert question.text.startswith("How often do you")

    def test_prune_click(self, setting):
        engine, members = setting
        qm = engine.queue_manager(running_example.FRAGMENT_QUERY, sample_size=1)
        question = qm.next_question("u")
        # prune the whole Activity subtree: queue should dry up quickly
        qm.submit_prune("u", E("Activity"))
        remaining = 0
        while qm.next_question("u") is not None and remaining < 100:
            qm.submit_support("u", 0.0)
            remaining += 1
        assert remaining == 0


class TestMemberScreening:
    def test_spammers_flagged_cooperative_kept(self, setting):
        import random

        from repro.crowd import SpammerMember
        from repro.datasets import running_example as rex

        engine, members = setting
        ontology = rex.build_ontology()
        spammers = [
            SpammerMember(f"spam-{i}", ontology.vocabulary, rng=random.Random(i))
            for i in range(3)
        ]
        kept, flagged = engine.screen_members(
            rex.FRAGMENT_QUERY, list(members) + spammers, probes_per_member=8
        )
        kept_ids = {m.member_id for m in kept}
        # every cooperative u_avg member survives screening
        assert all(m.member_id in kept_ids for m in members)
        # most spammers are caught (random answers may occasionally pass)
        assert len(flagged) >= 2

    def test_screening_returns_partition(self, setting):
        engine, members = setting
        kept, flagged = engine.screen_members(
            __import__("repro.datasets", fromlist=["running_example"])
            .running_example.FRAGMENT_QUERY,
            members,
        )
        assert len(kept) + len(flagged) == len(members)
