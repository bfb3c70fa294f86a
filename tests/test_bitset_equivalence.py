"""Randomized equivalence: bitset-compiled paths vs. reference scans.

The bitset compilation of :mod:`repro.vocabulary.orders` and the TID-bitset
support counting of :mod:`repro.crowd.tid_index` must be *observationally
identical* to the retained reference implementations — same ``leq``, same
closures, same support values — on random :mod:`repro.synth` taxonomies,
including after mutations (``add_edge`` / transaction ``add``) that must
invalidate the compiled state.  End to end, a mining run counting support
with the per-transaction scan must ask the same questions and find the
same MSPs as one on the index.
"""

import gc
import random
import weakref

import pytest

from repro.crowd.member import CrowdMember
from repro.crowd.personal_db import PersonalDatabase, Transaction
from repro.datasets import culinary, health, running_example, travel
from repro.engine.config import EngineConfig
from repro.engine.engine import OassisEngine
from repro.ontology.facts import Fact, FactSet
from repro.synth.taxonomy import random_order, random_taxonomy, random_vocabulary
from repro.vocabulary.terms import ANY_ELEMENT, ANY_RELATION_WILDCARD
from repro.vocabulary.vocabulary import Vocabulary


def _sample_terms(rng, order, count):
    terms = sorted(order.terms())
    return [rng.choice(terms) for _ in range(count)]


class TestOrderEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_leq_matches_reference(self, seed):
        order = random_order(node_count=150, depth=5, seed=seed)
        rng = random.Random(seed)
        for a, b in zip(
            _sample_terms(rng, order, 300), _sample_terms(rng, order, 300)
        ):
            assert order.leq(a, b) == order.leq_reference(a, b), (a, b)

    @pytest.mark.parametrize("seed", range(5))
    def test_closures_match_reference(self, seed):
        order = random_order(node_count=120, depth=4, seed=seed)
        for term in order.terms():
            assert order.descendants(term) == order.descendants_reference(term)
            assert order.ancestors(term) == order.ancestors_reference(term)

    def test_bits_and_views_agree(self):
        order = random_order(node_count=100, depth=4, seed=7)
        for term in order.terms():
            assert order.terms_of_bits(order.descendants_bits(term)) == (
                order.descendants(term)
            )
            assert order.terms_of_bits(order.ancestors_bits(term)) == (
                order.ancestors(term)
            )

    def test_mutation_invalidates_compiled_closures(self):
        order = random_order(node_count=80, depth=4, seed=3)
        rng = random.Random(3)
        for round_no in range(10):
            a, b = _sample_terms(rng, order, 2)
            if order.leq(b, a) or a == b:
                continue  # would cycle
            before = order.version
            order.add_edge(a, b)
            assert order.version > before
            assert order.leq(a, b)
            # spot-check full agreement after the mutation
            for term in _sample_terms(rng, order, 20):
                assert order.descendants(term) == order.descendants_reference(term)
                assert order.ancestors(term) == order.ancestors_reference(term)

    def test_unregistered_terms_relate_only_to_themselves(self):
        order = random_order(node_count=30, depth=3, seed=1)
        from repro.vocabulary.terms import Element

        ghost = Element("NotInOrder")
        some = next(iter(order.terms()))
        assert order.leq(ghost, ghost)
        assert not order.leq(ghost, some)
        assert not order.leq(some, ghost)
        assert order.descendants(ghost) == {ghost}
        assert order.descendants_bits(ghost) == 0


def _random_database(rng, vocabulary, transactions=30, facts_per_tx=4):
    elements = sorted(vocabulary.elements, key=lambda e: e.name)
    relations = sorted(vocabulary.relations, key=lambda r: r.name)
    fact_sets = []
    for _ in range(transactions):
        facts = []
        for _ in range(rng.randint(1, facts_per_tx)):
            facts.append(
                Fact(rng.choice(elements), rng.choice(relations), rng.choice(elements))
            )
        fact_sets.append(FactSet(facts))
    return PersonalDatabase.from_fact_sets(fact_sets)


def _random_queries(rng, vocabulary, count=40, max_facts=3):
    elements = sorted(vocabulary.elements, key=lambda e: e.name)
    relations = sorted(vocabulary.relations, key=lambda r: r.name)
    queries = []
    for _ in range(count):
        facts = []
        for _ in range(rng.randint(1, max_facts)):
            subject = rng.choice(elements + [ANY_ELEMENT])
            relation = rng.choice(relations + [ANY_RELATION_WILDCARD])
            obj = rng.choice(elements + [ANY_ELEMENT])
            facts.append(Fact(subject, relation, obj))
        queries.append(FactSet(facts))
    queries.append(FactSet())  # empty fact-set: support 1 by definition
    return queries


class TestSupportEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_tid_support_matches_reference(self, seed):
        rng = random.Random(seed)
        vocabulary = random_vocabulary(
            element_count=120, relation_count=6, depth=4, seed=seed
        )
        db = _random_database(rng, vocabulary)
        for query in _random_queries(rng, vocabulary):
            assert db.support(query, vocabulary) == db.support_reference(
                query, vocabulary
            ), query

    def test_transaction_add_invalidates_index(self):
        rng = random.Random(11)
        vocabulary = random_vocabulary(
            element_count=60, relation_count=4, depth=3, seed=11
        )
        db = _random_database(rng, vocabulary, transactions=10)
        queries = _random_queries(rng, vocabulary, count=15)
        for query in queries:
            db.support(query, vocabulary)  # warm index + memo
        elements = sorted(vocabulary.elements, key=lambda e: e.name)
        relations = sorted(vocabulary.relations, key=lambda r: r.name)
        new_tx = Transaction(
            "Tnew",
            FactSet(
                [Fact(rng.choice(elements), rng.choice(relations), rng.choice(elements))]
            ),
        )
        db.add(new_tx)
        for query in queries:
            assert db.support(query, vocabulary) == db.support_reference(
                query, vocabulary
            )

    def test_taxonomy_growth_invalidates_index(self):
        rng = random.Random(13)
        vocabulary = random_vocabulary(
            element_count=50, relation_count=4, depth=3, seed=13
        )
        db = _random_database(rng, vocabulary, transactions=12)
        queries = _random_queries(rng, vocabulary, count=15)
        for query in queries:
            db.support(query, vocabulary)  # warm index + memo
        # graft a new subtree under an existing term: closures change
        anchor = sorted(vocabulary.elements, key=lambda e: e.name)[0]
        layers = random_taxonomy(
            vocabulary, node_count=8, depth=1, seed=99, prefix="Graft"
        )
        vocabulary.element_order.add_edge(anchor, layers[0][0])
        for query in queries:
            assert db.support(query, vocabulary) == db.support_reference(
                query, vocabulary
            )

    def test_database_with_built_index_needs_no_cyclic_collection(self):
        rng = random.Random(19)
        vocabulary = random_vocabulary(
            element_count=40, relation_count=4, depth=3, seed=19
        )
        db = _random_database(rng, vocabulary, transactions=8)
        for query in _random_queries(rng, vocabulary, count=5):
            db.support(query, vocabulary)  # builds the index
        freed = weakref.ref(db)
        gc.disable()
        try:
            del db
            assert freed() is None, "database and index form a reference cycle"
        finally:
            gc.enable()

    def test_supporting_transactions_match_reference(self):
        rng = random.Random(17)
        vocabulary = random_vocabulary(
            element_count=80, relation_count=5, depth=4, seed=17
        )
        db = _random_database(rng, vocabulary, transactions=20)
        for query in _random_queries(rng, vocabulary, count=20):
            via_index = db.supporting_transactions(query, vocabulary)
            via_scan = [t for t in db if t.implies(query, vocabulary)]
            assert [t.transaction_id for t in via_index] == [
                t.transaction_id for t in via_scan
            ]

    def test_paper_scale_smoke(self):
        """One pass at a ≥4000-node DAG: compile, query, agree."""
        rng = random.Random(23)
        vocabulary = random_vocabulary(element_count=4200, depth=6, seed=23)
        assert len(vocabulary.element_order) >= 4000
        db = _random_database(rng, vocabulary, transactions=25)
        for query in _random_queries(rng, vocabulary, count=10, max_facts=2):
            assert db.support(query, vocabulary) == db.support_reference(
                query, vocabulary
            )


def _mine(ontology, query, members, config, **options):
    engine = OassisEngine(ontology, config=config)
    result = engine.execute(query, members, **options)
    return sorted(repr(a) for a in result.all_msps), result.questions


def _mine_both_ways(monkeypatch, build_members, ontology, query, config, **options):
    """Mine once on the TID index and once on the scan; both must agree."""
    on_index = _mine(ontology, query, build_members(), config, **options)
    with monkeypatch.context() as patch:
        patch.setattr(PersonalDatabase, "_hits", PersonalDatabase._hits_reference)
        on_scan = _mine(ontology, query, build_members(), config, **options)
    assert on_index == on_scan, "TID-index mining diverged from the scan"
    return on_index


class TestMiningEquivalence:
    NARROW = EngineConfig(max_values_per_var=2, max_more_facts=0)

    def test_tiny_member_databases(self, monkeypatch):
        """One-fact histories: the index holds a single distinct fact."""
        ontology = running_example.build_ontology()
        vocabulary = ontology.vocabulary
        histories = (
            ["Biking doAt Central Park"],
            ["Swimming doAt Bronx Zoo"],
            ["Basketball doAt Central Park"],
        )

        def build_members():
            return [
                CrowdMember(f"tiny-{i}", PersonalDatabase.parse(h), vocabulary)
                for i, h in enumerate(histories)
            ]

        _, questions = _mine_both_ways(
            monkeypatch, build_members, ontology,
            running_example.FRAGMENT_QUERY, self.NARROW, sample_size=3,
        )
        assert questions > 0

    def test_paper_scale_wide_taxonomy(self, monkeypatch):
        """A ≥1,000-term synthetic element order widens every closure the
        TID index unions over."""
        ontology = running_example.build_ontology()
        vocabulary = ontology.vocabulary
        random_taxonomy(
            vocabulary, node_count=1200, depth=5, seed=9,
            extra_edge_probability=0.1,
        )
        assert len(vocabulary.element_order) > 1000
        databases = running_example.build_personal_databases()

        def build_members():
            return [
                CrowdMember(member_id, database, vocabulary)
                for member_id, database in sorted(databases.items())
            ]

        _, questions = _mine_both_ways(
            monkeypatch, build_members, ontology,
            running_example.FRAGMENT_QUERY, self.NARROW, sample_size=2,
        )
        assert questions > 0

    def test_high_fan_out_candidates(self, monkeypatch):
        """Travel's lattice: many sibling candidates share witness masks."""
        dataset = travel.build_dataset()
        _, questions = _mine_both_ways(
            monkeypatch,
            lambda: dataset.build_crowd(size=2, seed=5, transactions=6),
            dataset.ontology, dataset.query(threshold=0.3), self.NARROW,
            sample_size=2,
        )
        assert questions > 100  # a real lattice walk, not a trivial run

    @pytest.mark.parametrize(
        "module, max_values_per_var",
        [(culinary, 2), (health, 1)],
        ids=["culinary", "self-treatment"],
    )
    def test_domain_run_matches_the_scan(self, monkeypatch, module, max_values_per_var):
        """The paper domains at ``make bench``'s quick sizes: crowd 6, 20
        transactions per member, sample 3, seed 23, Θ 0.2, MORE pool on."""
        dataset = module.build_dataset()
        config = EngineConfig(max_values_per_var=max_values_per_var, max_more_facts=0)
        msps, questions = _mine_both_ways(
            monkeypatch,
            lambda: dataset.build_crowd(size=6, seed=23, transactions=20),
            dataset.ontology, dataset.query(threshold=0.2), config,
            sample_size=3, more_pool=dataset.more_pool,
        )
        assert msps and questions > 0
