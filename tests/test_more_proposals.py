"""Tests for crowd-proposed MORE extensions (the UI's "more" button)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assignments import Assignment, QueryAssignmentSpace
from repro.crowd import CrowdMember, FixedSampleAggregator, PersonalDatabase
from repro.datasets import running_example, travel
from repro.engine.adapters import MemberUser
from repro.engine.config import EngineConfig
from repro.engine.engine import OassisEngine
from repro.mining import MultiUserMiner
from repro.oassisql import parse_query
from repro.observability import tracing
from repro.ontology import Fact, FactSet, fact_set
from repro.vocabulary import Element, Relation, Vocabulary
from repro.vocabulary.terms import ANY_ELEMENT, ANY_RELATION_WILDCARD


def E(name):
    return Element(name)


@pytest.fixture()
def space():
    ontology = running_example.build_ontology()
    query = parse_query(running_example.SAMPLE_QUERY)
    # no pool: MORE extensions only via proposals
    return QueryAssignmentSpace(
        ontology, query, max_values_per_var=2, max_more_facts=1
    )


@pytest.fixture()
def biking_node(space):
    return Assignment.make(
        space.vocabulary,
        {"x": {E("Central Park")}, "y": {E("Biking")}, "z": {E("Maoz Veg")},
         "__any_0": {ANY_ELEMENT}},
    )


class TestProposeMoreFact:
    def test_no_pool_means_no_more_successors(self, space, biking_node):
        assert not any(s.more for s in space.successors(biking_node))

    def test_proposal_becomes_successor(self, space, biking_node):
        tip = Fact("Rent Bikes", "doAt", "Boathouse")
        extended = space.propose_more_fact(biking_node, tip)
        assert extended is not None
        assert tip in extended.more
        assert extended in space.successors(biking_node)

    def test_proposal_idempotent(self, space, biking_node):
        tip = Fact("Rent Bikes", "doAt", "Boathouse")
        first = space.propose_more_fact(biking_node, tip)
        second = space.propose_more_fact(biking_node, tip)
        assert first == second
        with_more = [s for s in space.successors(biking_node) if s.more]
        assert len(with_more) == 1

    def test_budget_respected(self, space, biking_node):
        first = space.propose_more_fact(
            biking_node, Fact("Rent Bikes", "doAt", "Boathouse")
        )
        # max_more_facts=1: extending the extension is refused
        assert space.propose_more_fact(
            first, Fact("Pasta", "eatAt", "Pine")
        ) is None

    def test_query_without_more_refuses(self):
        ontology = running_example.build_ontology()
        query = parse_query(running_example.FRAGMENT_QUERY)  # no MORE
        space = QueryAssignmentSpace(ontology, query)
        node = space.roots()[0]
        assert space.propose_more_fact(
            node, Fact("Rent Bikes", "doAt", "Boathouse")
        ) is None


class TestProposalsExtendTheExpansion:
    """A tip on an expanded node joins the end of its successor list, as
    a fresh expansion with the same proposals would list it."""

    TIPS = (
        Fact("Rent Bikes", "doAt", "Boathouse"),
        Fact("Pasta", "eatAt", "Pine"),
    )

    def test_extended_lists_equal_a_fresh_space(self, space, biking_node):
        expanded = list(space.successors(biking_node))
        space.ordered_successors(biking_node)
        for tip in self.TIPS:
            space.propose_more_fact(biking_node, tip)
        fresh = QueryAssignmentSpace(
            space.ontology, space.query, max_values_per_var=2, max_more_facts=1
        )
        for tip in self.TIPS:
            fresh.propose_more_fact(biking_node, tip)
        assert space.successors(biking_node) == fresh.successors(biking_node)
        assert space.successors(biking_node)[: len(expanded)] == expanded
        assert len(space.successors(biking_node)) == len(expanded) + 2
        assert space.ordered_successors(biking_node) == fresh.ordered_successors(
            biking_node
        )

    def test_repeated_or_non_extending_tips_change_nothing(self, biking_node):
        ontology = running_example.build_ontology()
        space = QueryAssignmentSpace(
            ontology,
            parse_query(running_example.SAMPLE_QUERY),
            max_values_per_var=2,
            max_more_facts=2,
        )
        node = space.propose_more_fact(biking_node, self.TIPS[0])
        listed = space.successors(node)
        ordered = space.ordered_successors(node)
        # the fact node already holds, and a wildcard generalization of it,
        # extend nothing
        assert space.propose_more_fact(node, self.TIPS[0]) is None
        assert space.propose_more_fact(
            node, Fact(ANY_ELEMENT, "doAt", "Boathouse")
        ) is None
        extended = space.propose_more_fact(node, self.TIPS[1])
        assert space.propose_more_fact(node, self.TIPS[1]) == extended
        assert space.successors(node) == listed + [extended]
        assert space.ordered_successors(node) == ordered + [extended]

    def test_generated_counts_the_extension_once(self, space, biking_node):
        with tracing() as tracer:
            listed = space.successors(biking_node)
            assert tracer.value("lattice.successors.generated") == len(listed)
            space.propose_more_fact(biking_node, self.TIPS[0])
            space.successors(biking_node)
            space.ordered_successors(biking_node)
        assert tracer.value("lattice.successors.generated") == len(listed) + 1
        assert tracer.value("lattice.succ_cache.misses") == 1


class TestMemberTips:
    @pytest.fixture()
    def member(self):
        ontology = running_example.build_ontology()
        dbs = running_example.build_personal_databases()
        return CrowdMember(
            "u1", dbs["u1"], ontology.vocabulary, more_tip_ratio=1.0
        )

    def test_suggests_cooccurring_fact(self, member):
        target = fact_set(
            ("Biking", "doAt", "Central Park"),
            (ANY_ELEMENT, "eatAt", "Maoz Veg"),
        )
        tip = member.suggest_more_fact(target, force=True)
        # both supporting transactions (T3, T4) rent bikes at the Boathouse
        assert tip == Fact("Rent Bikes", "doAt", "Boathouse")

    def test_no_tip_when_nothing_cooccurs(self, member):
        target = fact_set(("Feed a monkey", "doAt", "Bronx Zoo"))
        tip = member.suggest_more_fact(target, force=True)
        # Pasta at Pine co-occurs in 2 of 3 supporting transactions
        assert tip == Fact("Pasta", "eatAt", "Pine")

    def test_no_tip_without_support(self, member):
        target = fact_set(("Swimming", "doAt", "Central Park"))
        assert member.suggest_more_fact(target, force=True) is None

    def test_ratio_zero_never_volunteers(self):
        ontology = running_example.build_ontology()
        dbs = running_example.build_personal_databases()
        member = CrowdMember("u1", dbs["u1"], ontology.vocabulary,
                             more_tip_ratio=0.0)
        target = fact_set(("Biking", "doAt", "Central Park"))
        assert member.suggest_more_fact(target) is None


def scan_tip(member, fact_set):
    """The tip by the per-occurrence scan: each occurrence of a fact in a
    supporting transaction is compared with every pattern fact before it
    is counted, and the most frequent survivor must reach half of the
    supporting transactions.  The oracle for the counting pass."""
    vocabulary = member.vocabulary
    supporting = member.database.supporting_transactions(fact_set, vocabulary)
    if not supporting:
        return None
    counts = {}
    for transaction in supporting:
        for fact in transaction.facts:
            if any(
                fact.leq(g, vocabulary) or g.leq(fact, vocabulary) for g in fact_set
            ):
                continue
            counts[fact] = counts.get(fact, 0) + 1
    if not counts:
        return None
    best = max(sorted(counts, key=str), key=lambda f: counts[f])
    if counts[best] < max(1, len(supporting) // 2):
        return None
    return best


@st.composite
def tip_problems(draw):
    """A personal database over a random taxonomy, and a pattern to tip on.

    Elements e0..e{n-1} form a tree under e0 and relations r0..r{m-1} one
    under r0; ``x0`` and ``q0`` lie outside both orders.  Pattern
    components may be the wildcards.  A transaction may hold a
    specialization of every pattern fact (so it supports the pattern), a
    generalization of one pattern fact, and random facts.
    """
    vocabulary = Vocabulary()
    vocabulary.add_element("e0")
    for i in range(1, draw(st.integers(2, 7))):
        vocabulary.specialize_element(f"e{draw(st.integers(0, i - 1))}", f"e{i}")
    vocabulary.add_relation("r0")
    for i in range(1, draw(st.integers(1, 3))):
        vocabulary.specialize_relation(f"r{draw(st.integers(0, i - 1))}", f"r{i}")
    elements = sorted(vocabulary.elements) + [Element("x0")]
    relations = sorted(vocabulary.relations) + [Relation("q0")]

    def term(pool, wildcard):
        return draw(st.sampled_from(pool + [wildcard]))

    def moved(value, pool, wildcard, closure):
        # a specialization (closure: descendants) or generalization
        # (ancestors) of one component; the wildcard is above everything
        if value == wildcard:
            return draw(st.sampled_from(pool)) if closure == "descendants" else value
        options = sorted(getattr(vocabulary, closure)(value))
        if closure == "ancestors":
            options.append(wildcard)
        return draw(st.sampled_from(options))

    def shifted(fact, closure):
        return Fact(
            moved(fact.subject, elements, ANY_ELEMENT, closure),
            moved(fact.relation, relations, ANY_RELATION_WILDCARD, closure),
            moved(fact.obj, elements, ANY_ELEMENT, closure),
        )

    pattern = FactSet(
        Fact(
            term(elements, ANY_ELEMENT),
            term(relations, ANY_RELATION_WILDCARD),
            term(elements, ANY_ELEMENT),
        )
        for _ in range(draw(st.integers(1, 2)))
    )
    transactions = []
    for _ in range(draw(st.integers(1, 8))):
        facts = [
            Fact(
                draw(st.sampled_from(elements)),
                draw(st.sampled_from(relations)),
                draw(st.sampled_from(elements)),
            )
            for _ in range(draw(st.integers(0, 3)))
        ]
        if draw(st.booleans()):
            facts.extend(shifted(g, "descendants") for g in pattern)
        if draw(st.booleans()):
            facts.append(shifted(draw(st.sampled_from(sorted(pattern))), "ancestors"))
        transactions.append(facts)
    database = PersonalDatabase.from_fact_sets(transactions)
    return CrowdMember("m", database, vocabulary), pattern


class TestTipEqualsTheScan:
    """Counting first, then comparing only the facts that reach the floor,
    picks the tip the per-occurrence scan picks."""

    @given(tip_problems())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_random_databases(self, problem):
        member, pattern = problem
        assert member.suggest_more_fact(pattern, force=True) == scan_tip(
            member, pattern
        )

    def test_forced_tips_of_travel_crowds(self, monkeypatch):
        """Every tip a travel run could ask for, forced (no rng draw)."""
        dataset = travel.build_dataset()
        engine = OassisEngine(
            dataset.ontology,
            config=EngineConfig(max_values_per_var=2, max_more_facts=1),
        )
        suggest = CrowdMember.suggest_more_fact
        tips = []

        def checked(member, fact_set, force=False):
            tips.append(
                (suggest(member, fact_set, force=True), scan_tip(member, fact_set))
            )
            return suggest(member, fact_set, force)

        monkeypatch.setattr(CrowdMember, "suggest_more_fact", checked)
        for seed in range(3):
            engine.execute(
                dataset.query(0.5),
                dataset.build_crowd(size=6, seed=seed),
                sample_size=3,
                more_pool=dataset.more_pool,
            )
        assert sum(tip is not None for tip, _ in tips) > 300
        assert all(tip == expected for tip, expected in tips)


class TestEndToEndProposedMore:
    def test_tip_reaches_the_output(self):
        """A crowd of u_avg-like members proposes and verifies a MORE tip."""
        ontology = running_example.build_ontology()
        dbs = running_example.build_personal_databases()
        vocab = ontology.vocabulary
        query = parse_query(running_example.SAMPLE_QUERY)
        space = QueryAssignmentSpace(
            ontology, query, max_values_per_var=2, max_more_facts=1
        )

        class AvgMember(CrowdMember):
            def __init__(self, member_id):
                from repro.crowd import PersonalDatabase

                super().__init__(member_id, dbs["u1"], vocab, more_tip_ratio=1.0)

            def true_support(self, fact_set):
                return (
                    dbs["u1"].support(fact_set, vocab)
                    + dbs["u2"].support(fact_set, vocab)
                ) / 2

        members = [AvgMember(f"m{i}") for i in range(5)]
        aggregator = FixedSampleAggregator(0.4, sample_size=5)
        users = [MemberUser(m, space) for m in members]
        result = MultiUserMiner(space, users, aggregator).run()
        assert result.stats.more_tips > 0
        extended_msps = [m for m in result.valid_msps if m.more]
        assert extended_msps, "the Rent Bikes tip should survive as an MSP"
        assert any(
            Fact("Rent Bikes", "doAt", "Boathouse") in m.more
            for m in extended_msps
        )


class TestReplayKeepsProposals:
    def test_replay_on_shared_space_retains_more_extensions(self):
        """Threshold replay must see the crowd-proposed MORE extensions."""
        from repro.crowd import CrowdCache
        from repro.mining import replay_from_cache

        ontology = running_example.build_ontology()
        dbs = running_example.build_personal_databases()
        vocab = ontology.vocabulary
        query = parse_query(running_example.SAMPLE_QUERY)
        space = QueryAssignmentSpace(
            ontology, query, max_values_per_var=2, max_more_facts=1
        )

        class AvgMember(CrowdMember):
            def __init__(self, member_id):
                from repro.crowd import PersonalDatabase

                super().__init__(member_id, dbs["u1"], vocab, more_tip_ratio=1.0)

            def true_support(self, fact_set):
                return (
                    dbs["u1"].support(fact_set, vocab)
                    + dbs["u2"].support(fact_set, vocab)
                ) / 2

        members = [AvgMember(f"m{i}") for i in range(5)]
        cache = CrowdCache()
        aggregator = FixedSampleAggregator(0.4, sample_size=5)
        users = [MemberUser(m, space) for m in members]
        base = MultiUserMiner(space, users, aggregator, cache=cache).run()
        base_extended = [m for m in base.valid_msps if m.more]
        assert base_extended

        # same threshold replay on the SAME space keeps the extension
        replayed = replay_from_cache(space, cache, 0.4, sample_size=5)
        assert any(m.more for m in replayed.valid_msps)

        # a fresh space (no proposals) would lose it
        fresh = QueryAssignmentSpace(
            ontology, query, max_values_per_var=2, max_more_facts=1
        )
        replayed_fresh = replay_from_cache(fresh, cache, 0.4, sample_size=5)
        assert not any(m.more for m in replayed_fresh.valid_msps)
