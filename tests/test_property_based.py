"""Property-based tests (hypothesis) for the core orders and algorithms."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.assignments import Assignment, ExplicitDAG, canonical_values
from repro.crowd import PersonalDatabase, Transaction
from repro.mining import (
    brute_force_msps,
    horizontal_mine,
    naive_mine,
    vertical_mine,
)
from repro.ontology import Fact, FactSet
from repro.vocabulary import Element, Vocabulary


# ---------------------------------------------------------------- strategies


@st.composite
def taxonomies(draw):
    """A random tree taxonomy over elements e0..e{n-1} (e0 the root)."""
    size = draw(st.integers(min_value=2, max_value=12))
    vocab = Vocabulary()
    elements = [Element(f"e{i}") for i in range(size)]
    vocab.add_element("e0")
    for i in range(1, size):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        vocab.specialize_element(f"e{parent}", f"e{i}")
    return vocab, elements


@st.composite
def layered_dags(draw):
    """A small random layered DAG with a downward-closed significant set."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    layers = draw(st.integers(min_value=2, max_value=4))
    widths = [1] + [draw(st.integers(min_value=1, max_value=5)) for _ in range(layers)]
    dag: ExplicitDAG = ExplicitDAG()
    node_id = 0
    previous: list = []
    for width in widths:
        current = list(range(node_id, node_id + width))
        node_id += width
        for node in current:
            dag.add_node(node)
            if previous:
                dag.add_edge(rng.choice(previous), node)
        previous = current
    # random downward-closed significance: pick seeds, close downward
    seeds = [n for n in dag.nodes() if rng.random() < 0.4]
    significant = set()
    for seed in seeds:
        significant.update(dag.ancestors(seed))
    return dag, significant


# -------------------------------------------------------------------- orders


@given(taxonomies(), st.data())
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_element_order_is_partial_order(tax, data):
    vocab, elements = tax
    a = data.draw(st.sampled_from(elements))
    b = data.draw(st.sampled_from(elements))
    c = data.draw(st.sampled_from(elements))
    # reflexive
    assert vocab.leq(a, a)
    # antisymmetric
    if vocab.leq(a, b) and vocab.leq(b, a):
        assert a == b
    # transitive
    if vocab.leq(a, b) and vocab.leq(b, c):
        assert vocab.leq(a, c)


@given(taxonomies(), st.data())
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_canonical_values_is_canonical(tax, data):
    vocab, elements = tax
    values = data.draw(st.sets(st.sampled_from(elements), min_size=1, max_size=5))
    canon = canonical_values(values, vocab)
    # antichain
    for a in canon:
        for b in canon:
            if a != b:
                assert not vocab.leq(a, b)
    # idempotent
    assert canonical_values(canon, vocab) == canon
    # equivalent: mutual domination with the original set
    for v in values:
        assert any(vocab.leq(v, c) for c in canon)


@given(taxonomies(), st.data())
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_fact_set_order_reflexive_transitive(tax, data):
    vocab, elements = tax
    vocab.add_relation("r")

    def random_fact_set():
        pairs = data.draw(
            st.lists(
                st.tuples(st.sampled_from(elements), st.sampled_from(elements)),
                min_size=1,
                max_size=3,
            )
        )
        return FactSet([Fact(s, "r", o) for s, o in pairs])

    a = random_fact_set()
    b = random_fact_set()
    c = random_fact_set()
    assert a.leq(a, vocab)
    if a.leq(b, vocab) and b.leq(c, vocab):
        assert a.leq(c, vocab)


@given(taxonomies(), st.data())
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_support_is_antitone_in_specificity(tax, data):
    """φ ≤ φ' implies supp(φ) ≥ supp(φ') — Observation 4.4's engine."""
    vocab, elements = tax
    vocab.add_relation("r")
    transactions = data.draw(
        st.lists(
            st.sets(
                st.tuples(st.sampled_from(elements), st.sampled_from(elements)),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=6,
        )
    )
    db = PersonalDatabase(
        Transaction(f"T{i}", FactSet([Fact(s, "r", o) for s, o in t]))
        for i, t in enumerate(transactions)
    )
    general_pair = data.draw(st.tuples(st.sampled_from(elements), st.sampled_from(elements)))
    general = FactSet([Fact(general_pair[0], "r", general_pair[1])])
    # specialize both components within the taxonomy
    specific_subject = data.draw(
        st.sampled_from(sorted(vocab.descendants(general_pair[0]), key=str))
    )
    specific_object = data.draw(
        st.sampled_from(sorted(vocab.descendants(general_pair[1]), key=str))
    )
    specific = FactSet([Fact(specific_subject, "r", specific_object)])
    assert general.leq(specific, vocab)
    assert db.support(general, vocab) >= db.support(specific, vocab)


# ---------------------------------------------------------------- algorithms


@given(layered_dags())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_all_miners_recover_brute_force_msps(setup):
    dag, significant = setup
    expected = set(brute_force_msps(dag, lambda n: n in significant))
    oracle = lambda n: 1.0 if n in significant else 0.0
    for miner in (vertical_mine, horizontal_mine, naive_mine):
        result = miner(dag, oracle, 0.5)
        assert set(result.msps) == expected, miner.__name__


@given(layered_dags())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_vertical_never_asks_twice(setup):
    dag, significant = setup
    asked = []

    def oracle(node):
        asked.append(node)
        return 1.0 if node in significant else 0.0

    vertical_mine(dag, oracle, 0.5)
    assert len(asked) == len(set(asked))


@given(layered_dags())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_vertical_asks_at_most_every_node(setup):
    dag, significant = setup
    result = vertical_mine(
        dag, lambda n: 1.0 if n in significant else 0.0, 0.5
    )
    assert result.questions <= len(dag)


@given(taxonomies(), st.data())
@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
def test_assignment_order_properties(tax, data):
    vocab, elements = tax

    def random_assignment():
        values = data.draw(
            st.sets(st.sampled_from(elements), min_size=1, max_size=3)
        )
        return Assignment.make(vocab, {"x": values})

    a = random_assignment()
    b = random_assignment()
    c = random_assignment()
    assert a.leq(a, vocab)
    if a.leq(b, vocab) and b.leq(c, vocab):
        assert a.leq(c, vocab)
    # canonical representatives make the preorder a partial order
    if a.leq(b, vocab) and b.leq(a, vocab):
        assert a == b


class NoFastPath:
    """Hide ancestors/descendants so the witness strategy is used."""

    def __init__(self, inner):
        self._inner = inner

    def roots(self):
        return self._inner.roots()

    def successors(self, node):
        return self._inner.successors(node)

    def predecessors(self, node):
        return self._inner.predecessors(node)

    def leq(self, a, b):
        return self._inner.leq(a, b)

    def is_valid(self, node):
        return self._inner.is_valid(node)


@given(layered_dags(), st.data())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_classification_state_matches_reference(setup, data):
    """The incremental witness-log state equals a brute-force reference."""
    from repro.mining import ClassificationState, Status

    dag, significant = setup

    wrapped = NoFastPath(dag)
    state = ClassificationState(wrapped)
    reference = ClassificationState(dag)  # fast-path reference
    nodes = dag.nodes()
    marks = data.draw(
        st.lists(
            st.tuples(st.sampled_from(nodes), st.booleans()),
            min_size=1,
            max_size=8,
        )
    )
    for node, mark_significant in marks:
        # keep the marks consistent with a downward-closed landscape
        if mark_significant and node in significant:
            state.mark_significant(node)
            reference.mark_significant(node)
        elif not mark_significant and node not in significant:
            state.mark_insignificant(node)
            reference.mark_insignificant(node)
        # interleave queries to exercise the incremental scan positions
        probe = data.draw(st.sampled_from(nodes))
        assert state.status(probe) == reference.status(probe)
    for node in nodes:
        assert state.status(node) == reference.status(node), node


@given(layered_dags(), st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_msp_tracker_matches_brute_force(setup, data):
    """After every forced refresh the tracker confirms exactly the noted
    candidates whose successors are all insignificant, on both strategies."""
    from repro.mining import ClassificationState, MspTracker, Status

    dag, _ = setup
    nodes = dag.nodes()
    stride = data.draw(st.integers(min_value=1, max_value=3))
    runs = []
    for space in (dag, NoFastPath(dag)):
        state = ClassificationState(space)
        runs.append((state, MspTracker(space, state, stride=stride), set()))
    marks = data.draw(
        st.lists(
            st.tuples(st.sampled_from(nodes), st.booleans(), st.booleans()),
            min_size=1,
            max_size=12,
        )
    )
    for node, significant, force in marks:
        for state, tracker, noted in runs:
            # the miners only ever mark unclassified nodes
            if state.status(node) is Status.UNKNOWN:
                if significant:
                    state.mark_significant(node)
                    tracker.note_significant(node)
                    noted.add(node)
                else:
                    state.mark_insignificant(node)
            tracker.refresh(force=force)
            if force:
                expected = {
                    c
                    for c in noted
                    if all(
                        state.status(s) is Status.INSIGNIFICANT
                        for s in dag.successors(c)
                    )
                }
                assert tracker.confirmed() == expected
    fast, lazy = runs
    assert fast[1].confirmed() == lazy[1].confirmed()


# ----------------------------------------------------------- served sessions


@given(st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_served_msps_are_decided_by_their_sample(data):
    """Random supports and random dispatch/answer interleavings through
    a demo ``QueueManager``, several questions in flight per member:
    every reported MSP is SIGNIFICANT, significant by the first
    ``sample_size`` answers the cache holds for it, and its successors
    are INSIGNIFICANT.

    A successor's own sample may still read significant: when the closure
    classifies it insignificant while answers for it are in flight, those
    answers land after the decision and cannot change it.
    """
    from repro.crowd import CrowdCache, FixedSampleAggregator, Verdict
    from repro.engine import OassisEngine
    from repro.mining import Status
    from repro.service.simulation import DOMAINS

    supports = (0.0, 0.2, 0.5, 1.0)
    demo = DOMAINS["demo"]()
    sample = data.draw(st.integers(min_value=2, max_value=3), label="sample")
    crowd = data.draw(st.integers(min_value=sample, max_value=6), label="crowd")
    threshold = data.draw(st.sampled_from((0.3, 0.4, 0.5)), label="threshold")
    members = [f"m{i}" for i in range(crowd)]
    # each member's answer while draining; the random phase draws each one
    support_of = {
        member: data.draw(st.sampled_from(supports), label=member)
        for member in members
    }
    cache = CrowdCache()
    queue = OassisEngine(demo.ontology).queue_manager(
        demo.query(threshold), sample_size=sample, cache=cache
    )
    in_flight = {member: [] for member in members}

    def answer(member, index, support):
        queue.submit_support(member, support, in_flight[member].pop(index))

    def dispatch(member):
        batch = queue.next_batch(member, 1)
        in_flight[member].extend(batch)
        return bool(batch)

    for _ in range(data.draw(st.integers(min_value=0, max_value=120), label="steps")):
        member = data.draw(st.sampled_from(members))
        if in_flight[member] and data.draw(st.booleans()):
            index = data.draw(st.integers(0, len(in_flight[member]) - 1))
            answer(member, index, data.draw(st.sampled_from(supports)))
        else:
            dispatch(member)
    progressed = True
    while progressed:  # drain: answer everything, then keep pulling
        progressed = False
        for member in members:
            while in_flight[member]:
                answer(member, 0, support_of[member])
                progressed = True
            progressed = dispatch(member) or progressed

    def verdict(node):
        box = FixedSampleAggregator(threshold, sample_size=sample)
        for member, support in cache.answers_for(node)[:sample]:
            box.add_answer(node, member, support)
        return box.verdict(node)

    for msp in queue.current_msps():
        assert queue.state.status(msp) is Status.SIGNIFICANT, msp
        assert verdict(msp) is Verdict.SIGNIFICANT, msp
        for successor in queue.space.successors(msp):
            assert queue.state.status(successor) is Status.INSIGNIFICANT, successor
