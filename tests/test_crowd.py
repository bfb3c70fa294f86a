"""Unit tests for the crowd substrate: DBs, questions, members, aggregation."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.assignments import Assignment
from repro.crowd import (
    ConcreteQuestion,
    CrowdCache,
    CrowdMember,
    FixedSampleAggregator,
    MajorityAggregator,
    NoneOfTheseAnswer,
    OracleMember,
    PersonalDatabase,
    SpammerMember,
    SpecializationAnswer,
    SpecializationQuestion,
    Transaction,
    TrustWeightedAggregator,
    Verdict,
    frequency_to_support,
    quantize_support,
    support_to_frequency,
)
from repro.datasets import running_example
from repro.ontology import FactSet, fact_set
from repro.vocabulary import Element


@pytest.fixture(scope="module")
def setting():
    ontology = running_example.build_ontology()
    dbs = running_example.build_personal_databases()
    return ontology.vocabulary, dbs


class TestPersonalDatabase:
    def test_len_and_iter(self, setting):
        _, dbs = setting
        assert len(dbs["u1"]) == 6
        assert len(list(dbs["u1"])) == 6

    def test_empty_database_support_zero(self, setting):
        vocab, _ = setting
        empty = PersonalDatabase()
        assert empty.support(fact_set(("A", "doAt", "B")), vocab) == 0.0

    def test_empty_fact_set_support_one(self, setting):
        vocab, dbs = setting
        assert dbs["u1"].support(FactSet(), vocab) == 1.0

    def test_supporting_transactions(self, setting):
        vocab, dbs = setting
        fs = fact_set(("Biking", "doAt", "Central Park"))
        supporting = dbs["u1"].supporting_transactions(fs, vocab)
        assert {t.transaction_id for t in supporting} == {"T3", "T4"}

    def test_from_fact_sets(self, setting):
        vocab, _ = setting
        db = PersonalDatabase.from_fact_sets(
            [fact_set(("A", "doAt", "B"))], prefix="X"
        )
        assert next(iter(db)).transaction_id == "X1"

    def test_add_invalidates_cache(self, setting):
        vocab, _ = setting
        db = PersonalDatabase()
        fs = fact_set(("A", "doAt", "B"))
        assert db.support(fs, vocab) == 0.0
        db.add(Transaction("T1", fs))
        assert db.support(fs, vocab) == 1.0


class TestFrequencyScale:
    def test_round_trip_labels(self):
        for label in ("never", "rarely", "sometimes", "often", "very often"):
            assert support_to_frequency(frequency_to_support(label)) == label

    def test_quantize_snaps_to_nearest(self):
        assert quantize_support(0.1) == 0.0
        assert quantize_support(0.2) == 0.25
        assert quantize_support(0.6) == 0.5
        assert quantize_support(0.9) == 1.0

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError):
            frequency_to_support("constantly")

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            support_to_frequency(1.5)


class TestCrowdMember:
    def test_truthful_concrete_answer(self, setting):
        vocab, dbs = setting
        member = CrowdMember("u1", dbs["u1"], vocab)
        question = ConcreteQuestion(
            Assignment.make(vocab, {}),
            fact_set(("Biking", "doAt", "Central Park")),
        )
        assert member.answer_concrete(question).support == pytest.approx(1 / 3)

    def test_noise_stays_in_range(self, setting):
        vocab, dbs = setting
        member = CrowdMember(
            "u1", dbs["u1"], vocab, noise=0.5, rng=random.Random(7)
        )
        question = ConcreteQuestion(
            Assignment.make(vocab, {}),
            fact_set(("Biking", "doAt", "Central Park")),
        )
        for _ in range(50):
            assert 0.0 <= member.answer_concrete(question).support <= 1.0

    def test_quantized_answers_on_scale(self, setting):
        vocab, dbs = setting
        member = CrowdMember("u1", dbs["u1"], vocab, quantize=True)
        question = ConcreteQuestion(
            Assignment.make(vocab, {}),
            fact_set(("Biking", "doAt", "Central Park")),
        )
        assert member.answer_concrete(question).support in (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_max_questions_limits_willingness(self, setting):
        vocab, dbs = setting
        member = CrowdMember("u1", dbs["u1"], vocab, max_questions=1)
        assert member.willing_to_answer()
        question = ConcreteQuestion(Assignment.make(vocab, {}), FactSet())
        member.answer_concrete(question)
        assert not member.willing_to_answer()

    def test_specialization_picks_highest_support(self, setting):
        vocab, dbs = setting
        member = CrowdMember("u1", dbs["u1"], vocab)
        monkey = Assignment.make(vocab, {"y": {Element("Feed a monkey")}})
        biking = Assignment.make(vocab, {"y": {Element("Biking")}})

        def instantiate(assignment):
            activity = next(iter(assignment.get("y")))
            return fact_set((activity.name, "doAt", "Bronx Zoo"))

        question = SpecializationQuestion(
            Assignment.make(vocab, {}), FactSet(), [monkey, biking]
        )
        answer = member.answer_specialization(question, instantiate)
        assert isinstance(answer, SpecializationAnswer)
        assert answer.chosen == monkey  # 3/6 beats 0

    def test_specialization_none_of_these(self, setting):
        vocab, dbs = setting
        member = CrowdMember("u1", dbs["u1"], vocab)
        swimming = Assignment.make(vocab, {"y": {Element("Swimming")}})

        def instantiate(assignment):
            return fact_set(("Swimming", "doAt", "Central Park"))

        question = SpecializationQuestion(
            Assignment.make(vocab, {}), FactSet(), [swimming]
        )
        answer = member.answer_specialization(question, instantiate)
        assert isinstance(answer, NoneOfTheseAnswer)
        assert answer.candidates == [swimming]

    def test_prunable_value(self, setting):
        vocab, dbs = setting
        member = CrowdMember(
            "u1",
            dbs["u1"],
            vocab,
            pruning_ratio=1.0,
            irrelevant_values=[Element("Water Sport")],
            rng=random.Random(0),
        )
        swimming_node = Assignment.make(vocab, {"y": {Element("Swimming")}})
        assert member.prunable_value(swimming_node) == Element("Water Sport")
        biking_node = Assignment.make(vocab, {"y": {Element("Biking")}})
        assert member.prunable_value(biking_node) is None

    def test_pruning_token_is_independent_of_hash_seed(self):
        # a travel node involving two of the member's irrelevant values,
        # asked in two interpreters: the token must not follow set order
        src = str(Path(repro.__file__).resolve().parents[1])
        script = (
            "from repro.assignments import Assignment\n"
            "from repro.crowd import CrowdMember, PersonalDatabase\n"
            "from repro.datasets import travel\n"
            "from repro.vocabulary import Element\n"
            "dataset = travel.build_dataset()\n"
            "vocab = dataset.ontology.vocabulary\n"
            "member = CrowdMember('m', PersonalDatabase(), vocab, pruning_ratio=1.0,\n"
            "                     irrelevant_values=dataset.irrelevant_values)\n"
            "node = Assignment.make(vocab, {'y': {Element('Kayaking'), Element('Climbing')}})\n"
            "print(member.prunable_value(node))\n"
        )
        tokens = []
        for hash_seed in ("0", "1"):
            run = subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src),
                capture_output=True,
                text=True,
                check=True,
            )
            tokens.append(run.stdout.strip())
        assert tokens == ["Climbing", "Climbing"]

    def test_oracle_member(self, setting):
        vocab, _ = setting
        member = OracleMember("o", lambda node: 0.7, vocab)
        question = ConcreteQuestion(Assignment.make(vocab, {}), FactSet())
        assert member.answer_concrete(question).support == 0.7

    def test_spammer_in_range(self, setting):
        vocab, _ = setting
        spammer = SpammerMember("s", vocab, rng=random.Random(3))
        question = ConcreteQuestion(Assignment.make(vocab, {}), FactSet())
        values = {spammer.answer_concrete(question).support for _ in range(20)}
        assert all(0.0 <= v <= 1.0 for v in values)
        assert len(values) > 5  # actually random


class TestAggregators:
    def test_fixed_sample_undecided_until_quota(self):
        agg = FixedSampleAggregator(0.4, sample_size=3)
        agg.add_answer("a", "u1", 1.0)
        agg.add_answer("a", "u2", 1.0)
        assert agg.verdict("a") is Verdict.UNDECIDED
        agg.add_answer("a", "u3", 0.0)
        assert agg.verdict("a") is Verdict.SIGNIFICANT  # avg 2/3 >= 0.4

    def test_fixed_sample_insignificant(self):
        agg = FixedSampleAggregator(0.5, sample_size=2)
        agg.add_answer("a", "u1", 0.2)
        agg.add_answer("a", "u2", 0.3)
        assert agg.verdict("a") is Verdict.INSIGNIFICANT

    def test_fixed_sample_verdict_is_final(self):
        agg = FixedSampleAggregator(0.4, sample_size=2)
        agg.add_answer("a", "u1", 0.0)
        agg.add_answer("a", "u2", 0.0)
        agg.add_answer("a", "u3", 1.0)
        agg.add_answer("a", "u4", 1.0)
        assert agg.verdict("a") is Verdict.INSIGNIFICANT
        assert agg.answer_count("a") == 2
        assert agg.average_support("a") == 0.0

    def test_zero_trust_sample_stays_open(self):
        agg = TrustWeightedAggregator(0.5, sample_size=1, trust={"spam": 0.0})
        agg.add_answer("a", "spam", 1.0)
        assert agg.verdict("a") is Verdict.UNDECIDED
        agg.add_answer("a", "good", 0.1)
        assert agg.verdict("a") is Verdict.INSIGNIFICANT
        agg.add_answer("a", "late", 1.0)
        assert agg.answer_count("a") == 2

    def test_average_support(self):
        agg = FixedSampleAggregator(0.5, sample_size=2)
        assert agg.average_support("a") is None
        agg.add_answer("a", "u1", 0.2)
        agg.add_answer("a", "u2", 0.4)
        assert agg.average_support("a") == pytest.approx(0.3)

    def test_majority(self):
        agg = MajorityAggregator(0.5, sample_size=3)
        agg.add_answer("a", "u1", 0.9)
        agg.add_answer("a", "u2", 0.9)
        agg.add_answer("a", "u3", 0.0)
        assert agg.verdict("a") is Verdict.SIGNIFICANT

    def test_trust_weighted_discounts_spammer(self):
        agg = TrustWeightedAggregator(0.5, sample_size=2, trust={"spam": 0.0})
        agg.add_answer("a", "spam", 1.0)
        agg.add_answer("a", "good", 0.1)
        assert agg.verdict("a") is Verdict.INSIGNIFICANT

    def test_has_answered(self):
        agg = FixedSampleAggregator(0.5)
        agg.add_answer("a", "u1", 0.2)
        assert agg.has_answered("a", "u1")
        assert not agg.has_answered("a", "u2")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FixedSampleAggregator(0.0)
        with pytest.raises(ValueError):
            FixedSampleAggregator(0.5, sample_size=0)


class TestCrowdCache:
    def test_record_and_lookup(self):
        cache = CrowdCache()
        cache.record("a", "u1", 0.4)
        assert cache.lookup("a", "u1") == 0.4
        assert cache.lookup("a", "u2") is None
        assert cache.hits == 1
        assert cache.misses == 1

    def test_answers_for_preserves_order(self):
        cache = CrowdCache()
        cache.record("a", "u1", 0.1)
        cache.record("a", "u2", 0.2)
        assert cache.answers_for("a") == [("u1", 0.1), ("u2", 0.2)]

    def test_totals(self):
        cache = CrowdCache()
        cache.record("a", "u1", 0.1)
        cache.record("b", "u1", 0.2)
        assert len(cache) == 2
        assert cache.total_answers() == 2

    def test_json_round_trip(self):
        cache = CrowdCache()
        cache.record("a", "u1", 0.25)
        restored = CrowdCache.from_json(cache.to_json())
        assert restored.answers_for("'a'") == [("u1", 0.25)]

    def test_clear_statistics(self):
        cache = CrowdCache()
        cache.lookup("a", "u1")
        cache.clear_statistics()
        assert cache.misses == 0
