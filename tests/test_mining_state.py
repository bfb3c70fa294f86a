"""Unit tests for ClassificationState and the Observation 4.4 inference."""

import random

import pytest

from repro.assignments import Assignment, ExplicitDAG, QueryAssignmentSpace
from repro.datasets import running_example
from repro.mining import ClassificationState, Status
from repro.oassisql import parse_query
from repro.ontology import Fact
from repro.vocabulary import Element


@pytest.fixture()
def chain_dag() -> ExplicitDAG:
    dag = ExplicitDAG()
    for a, b in [(0, 1), (1, 2), (2, 3)]:
        dag.add_edge(a, b)
    return dag


def diamond_dag() -> ExplicitDAG:
    dag = ExplicitDAG()
    for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        dag.add_edge(a, b)
    return dag


class LazyView:
    """An ExplicitDAG without ``ancestors``/``descendants``.

    ClassificationState then keeps witness logs (the lazy-space strategy)
    over the same order, so the two strategies can be compared.
    """

    def __init__(self, dag):
        self._dag = dag

    def __getattr__(self, name):
        if name in ("ancestors", "descendants"):
            raise AttributeError(name)
        return getattr(self._dag, name)


class TestFastStrategy:
    def test_significant_classifies_down_set(self, chain_dag):
        state = ClassificationState(chain_dag)
        state.mark_significant(2)
        assert state.status(0) is Status.SIGNIFICANT
        assert state.status(1) is Status.SIGNIFICANT
        assert state.status(2) is Status.SIGNIFICANT
        assert state.status(3) is Status.UNKNOWN

    def test_insignificant_classifies_up_set(self, chain_dag):
        state = ClassificationState(chain_dag)
        state.mark_insignificant(1)
        assert state.status(0) is Status.UNKNOWN
        assert state.status(1) is Status.INSIGNIFICANT
        assert state.status(3) is Status.INSIGNIFICANT

    def test_is_classified_helpers(self, chain_dag):
        state = ClassificationState(chain_dag)
        state.mark_significant(0)
        assert state.is_significant(0)
        assert state.is_classified(0)
        assert not state.is_classified(1)
        assert not state.is_insignificant(0)


class TestWitnessStrategy:
    @pytest.fixture()
    def lazy_space(self) -> QueryAssignmentSpace:
        ontology = running_example.build_ontology()
        query = parse_query(running_example.FRAGMENT_QUERY)
        return QueryAssignmentSpace(ontology, query, max_values_per_var=1)

    def test_down_set_inference(self, lazy_space):
        vocab = lazy_space.vocabulary
        state = ClassificationState(lazy_space)
        specific = Assignment.make(
            vocab, {"x": {Element("Central Park")}, "y": {Element("Biking")}}
        )
        general = Assignment.make(
            vocab, {"x": {Element("Park")}, "y": {Element("Sport")}}
        )
        state.mark_significant(specific)
        assert state.status(general) is Status.SIGNIFICANT
        assert state.status(specific) is Status.SIGNIFICANT

    def test_up_set_inference(self, lazy_space):
        vocab = lazy_space.vocabulary
        state = ClassificationState(lazy_space)
        general = Assignment.make(
            vocab, {"x": {Element("Outdoor")}, "y": {Element("Water Sport")}}
        )
        specific = Assignment.make(
            vocab, {"x": {Element("Central Park")}, "y": {Element("Swimming")}}
        )
        state.mark_insignificant(general)
        assert state.status(specific) is Status.INSIGNIFICANT

    def test_witness_antichain_maintenance(self, lazy_space):
        vocab = lazy_space.vocabulary
        state = ClassificationState(lazy_space)
        general = Assignment.make(
            vocab, {"x": {Element("Park")}, "y": {Element("Sport")}}
        )
        specific = Assignment.make(
            vocab, {"x": {Element("Central Park")}, "y": {Element("Biking")}}
        )
        state.mark_significant(general)
        state.mark_significant(specific)
        # the general witness is subsumed: antichain keeps only the specific
        assert state.significant_witnesses() == [specific]
        # marking an already-implied node is a no-op
        state.mark_significant(general)
        assert state.significant_witnesses() == [specific]

    def test_incomparable_statuses_independent(self, lazy_space):
        vocab = lazy_space.vocabulary
        state = ClassificationState(lazy_space)
        biking = Assignment.make(
            vocab, {"x": {Element("Central Park")}, "y": {Element("Biking")}}
        )
        monkey = Assignment.make(
            vocab, {"x": {Element("Bronx Zoo")}, "y": {Element("Feed a monkey")}}
        )
        state.mark_significant(biking)
        assert state.status(monkey) is Status.UNKNOWN


class TestSignificantIsFinal:
    def test_strategies_agree_after_a_late_insignificant_mark(self):
        dag = diamond_dag()
        # 1 stays significant; the mark still classifies the rest of its up-set
        expected = {
            0: Status.SIGNIFICANT,
            1: Status.SIGNIFICANT,
            2: Status.UNKNOWN,
            3: Status.INSIGNIFICANT,
        }
        for space in (dag, LazyView(dag)):
            state = ClassificationState(space)
            assert state._fast is (space is dag)
            state.mark_significant(1)
            state.mark_insignificant(1)
            assert {node: state.status(node) for node in dag.nodes()} == expected


class TestIncrementalMspTracker:
    """MspTracker keeps a shrinking pending frontier per candidate."""

    def test_confirms_when_frontier_drains(self):
        from repro.mining.trace import MspTracker

        dag = diamond_dag()
        state = ClassificationState(dag)
        tracker = MspTracker(dag, state)
        state.mark_significant(0)
        tracker.note_significant(0)
        tracker.refresh(force=True)
        assert tracker.confirmed() == set()  # successors 1, 2 undecided

        state.mark_insignificant(1)
        tracker.refresh(force=True)
        assert tracker.confirmed() == set()  # 2 still pending

        state.mark_insignificant(2)
        tracker.refresh(force=True)
        assert tracker.confirmed() == {0}
        assert tracker.counts()[0] == 1

    def test_frontier_shrinks_monotonically(self):
        from repro.mining.trace import MspTracker

        dag = diamond_dag()
        state = ClassificationState(dag)
        tracker = MspTracker(dag, state)
        state.mark_significant(0)
        tracker.note_significant(0)
        assert sorted(tracker._pending[0]) == [1, 2]
        state.mark_insignificant(1)
        tracker.refresh(force=True)
        assert tracker._pending[0] == [2]  # 1 left the frontier for good

    def test_note_new_successor_reopens_candidate(self):
        from repro.mining.trace import MspTracker

        dag = diamond_dag()
        state = ClassificationState(dag)
        tracker = MspTracker(dag, state)
        state.mark_significant(0)
        tracker.note_significant(0)
        state.mark_insignificant(1)
        state.mark_insignificant(2)

        # the lattice grows mid-run (e.g. a crowd-proposed MORE extension)
        # before the frontier drained: the candidate must wait for the new
        # successor too
        dag.add_edge(0, 4)
        tracker.note_new_successor(0, 4)
        tracker.refresh(force=True)
        assert tracker.confirmed() == set()

        state.mark_insignificant(4)
        tracker.refresh(force=True)
        assert tracker.confirmed() == {0}

    def test_note_new_successor_ignores_confirmed_candidates(self):
        from repro.mining.trace import MspTracker

        dag = diamond_dag()
        state = ClassificationState(dag)
        tracker = MspTracker(dag, state)
        state.mark_significant(0)
        tracker.note_significant(0)
        state.mark_insignificant(1)
        state.mark_insignificant(2)
        tracker.refresh(force=True)
        assert tracker.confirmed() == {0}
        # confirmation is final: late successors don't resurrect the frontier
        tracker.note_new_successor(0, 4)
        tracker.refresh(force=True)
        assert tracker.confirmed() == {0}

    def test_refuted_candidate_leaves_the_frontier(self):
        from repro.mining.trace import MspTracker

        dag = diamond_dag()
        state = ClassificationState(dag)
        tracker = MspTracker(dag, state)
        state.mark_significant(0)
        tracker.note_significant(0)
        tracker.refresh(force=True)
        assert 0 in tracker._pending

        # a significant successor refutes 0 for good
        state.mark_significant(1)
        tracker.note_significant(1)
        tracker.refresh(force=True)
        assert 0 not in tracker._pending
        assert 1 in tracker._pending

        state.mark_insignificant(2)
        state.mark_insignificant(3)
        tracker.refresh(force=True)
        assert tracker.confirmed() == {1}
        assert tracker._pending == {}

    def test_stride_throttles_but_force_overrides(self):
        from repro.mining.trace import MspTracker

        dag = diamond_dag()
        state = ClassificationState(dag)
        tracker = MspTracker(dag, state, stride=10)
        state.mark_significant(0)
        tracker.note_significant(0)
        tracker.refresh()  # call 1 runs (1 % 10 == 1)
        state.mark_insignificant(1)
        state.mark_insignificant(2)
        tracker.refresh()  # throttled
        assert tracker.confirmed() == set()
        tracker.refresh(force=True)
        assert tracker.confirmed() == {0}


class HiddenIndex:
    """A query space without ``witness_index``: the state scans its logs."""

    def __init__(self, space):
        self._space = space

    def __getattr__(self, name):
        if name == "witness_index":
            raise AttributeError(name)
        return getattr(self._space, name)


class SemanticLeq:
    """``Assignment.leq`` over the vocabulary: Def. 4.1 without digests."""

    def __init__(self, vocabulary):
        self.vocabulary = vocabulary

    def leq(self, a, b):
        return a.leq(b, self.vocabulary)


def whole_log_status(space, significant, insignificant, node):
    """Observation 4.4 by brute force: one ``leq`` per marked witness."""
    if any(space.leq(node, w) for w in significant):
        return Status.SIGNIFICANT
    if any(space.leq(w, node) for w in insignificant):
        return Status.INSIGNIFICANT
    return Status.UNKNOWN


def sample_nodes(space, rng, walks):
    """Nodes met on random descents from the roots; on a MORE query some
    steps propose a MORE fact (the crowd's "more" button) and descend into
    the extension, so multi-valued and MORE-extended nodes both appear.
    A few variants leave a variable unbound (as multiplicity 0 does) or add
    a term the orders do not know, which only matches itself."""
    roots = space.roots()
    nodes, facts = [], list(space.more_pool) + [Fact("Unlisted", "doAt", "Nowhere")]
    for _ in range(walks):
        node = rng.choice(roots)
        for _ in range(rng.randint(0, 8)):
            nodes.append(node)
            facts.extend(space.instantiate(node))
            if rng.random() < 0.25:
                extended = space.propose_more_fact(node, rng.choice(facts))
                if extended is not None:
                    node = extended
                    continue
            successors = space.successors(node)
            if not successors:
                break
            node = rng.choice(successors)
    for node in rng.sample(nodes, 12):
        values = dict(node.values)
        name = rng.choice(sorted(values))
        if rng.random() < 0.5:
            del values[name]
        else:
            values[name] = values[name] | {Element("Unlisted")}
        nodes.append(Assignment(values, node.more))
    return list(dict.fromkeys(nodes))


class TestWitnessIndex:
    """On a ``QueryAssignmentSpace`` the state asks a witness index built
    from per-(variable, value set) and per-MORE-set masks; every verdict
    must be the one a whole-log ``leq`` scan gives."""

    @pytest.mark.parametrize(
        "domain,max_values,seed",
        [
            ("travel", 2, 0),
            ("travel", 3, 1),
            ("culinary", 2, 0),
            ("culinary", 3, 1),
            ("health", 2, 0),
        ],
    )
    def test_index_matches_whole_log_scan(self, domain, max_values, seed):
        from repro.service.simulation import DOMAINS

        dataset = DOMAINS[domain]()
        space = QueryAssignmentSpace(
            dataset.ontology,
            parse_query(dataset.query(0.3)),
            more_pool=dataset.more_pool,
            max_values_per_var=max_values,
            max_more_facts=2,
        )
        rng = random.Random(seed)
        nodes = sample_nodes(space, rng, walks=40)
        if domain != "health":  # health's query has no multi-valued variable
            assert any(len(values) > 1 for n in nodes for values in n.values.values())
        if space.satisfying.more:
            assert any(n.more for n in nodes)
        # consistent marks follow a downward-closed landscape, so the first
        # verdict a node gets is the whole-log one; noisy marks do not, and
        # there the index is held to the per-node scan instead
        peaks = rng.sample(nodes, 5)
        landscape = {n: any(space.leq(n, p) for p in peaks) for n in nodes}
        state = ClassificationState(space)
        scanned = ClassificationState(HiddenIndex(space))
        noisy = ClassificationState(space)
        noisy_scanned = ClassificationState(HiddenIndex(space))
        assert state._index is not None and scanned._index is None
        semantic = SemanticLeq(space.vocabulary)
        significant, insignificant = [], []
        for _ in range(300):
            node = rng.choice(nodes)
            if rng.random() < 0.3:
                if landscape[node]:
                    state.mark_significant(node)
                    scanned.mark_significant(node)
                    significant.append(node)
                else:
                    state.mark_insignificant(node)
                    scanned.mark_insignificant(node)
                    insignificant.append(node)
                mark = "mark_significant" if rng.random() < 0.5 else "mark_insignificant"
                getattr(noisy, mark)(node)
                getattr(noisy_scanned, mark)(node)
            probe = rng.choice(nodes)
            expected = whole_log_status(space, significant, insignificant, probe)
            # the digest leq the scan uses agrees with Def. 4.1 itself
            assert expected is whole_log_status(semantic, significant, insignificant, probe)
            assert state.status(probe) is expected, probe
            assert scanned.status(probe) is expected, probe
            assert noisy.status(probe) is noisy_scanned.status(probe), probe
        for node in nodes:
            expected = whole_log_status(space, significant, insignificant, node)
            assert state.status(node) is expected, node
            assert noisy.status(node) is noisy_scanned.status(node), node
        assert significant and insignificant

    def test_a_moved_order_stamp_rebuilds_the_masks(self):
        ontology = running_example.build_ontology()
        space = QueryAssignmentSpace(
            ontology, parse_query(running_example.FRAGMENT_QUERY), max_values_per_var=1
        )
        vocab = space.vocabulary

        def node(x, y):
            return Assignment.make(vocab, {"x": {Element(x)}, "y": {Element(y)}})

        state = ClassificationState(space)
        significant = [node("Central Park", "Biking")]
        insignificant = [node("Bronx Zoo", "Sport")]
        state.mark_significant(significant[0])
        state.mark_insignificant(insignificant[0])
        swimming = node("Central Park", "Swimming")
        feeding = node("Bronx Zoo", "Feed a monkey")
        assert state.status(swimming) is Status.UNKNOWN
        assert state.status(feeding) is Status.UNKNOWN
        # Swimming ≤ Biking puts the swimming node under the significant
        # witness; Sport ≤ Feed a monkey puts the insignificant one under
        # the feeding node
        vocab.specialize_element("Swimming", "Biking")
        vocab.specialize_element("Sport", "Feed a monkey")
        for probe in (swimming, feeding):
            expected = whole_log_status(space, significant, insignificant, probe)
            assert expected is not Status.UNKNOWN
            assert state.status(probe) is expected

    def test_travel_run_leaves_leq_to_the_successor_filter(self, monkeypatch):
        from repro import EngineConfig, OassisEngine
        from repro.datasets import travel

        calls = [0]
        leq = QueryAssignmentSpace.leq

        def counted(self, a, b):
            calls[0] += 1
            return leq(self, a, b)

        monkeypatch.setattr(QueryAssignmentSpace, "leq", counted)
        dataset = travel.build_dataset()
        engine = OassisEngine(
            dataset.ontology, config=EngineConfig(max_values_per_var=2, max_more_facts=1)
        )
        result = engine.execute(
            dataset.query(0.5),
            dataset.build_crowd(size=6, seed=1000),
            sample_size=3,
            more_pool=dataset.more_pool,
        )
        assert result.questions == 2371
        assert sorted(repr(a) for a in result.all_msps) == [
            "Assignment(__any_0->{__any__}; x->{Charles Clore Park}; y->{Picnic}; "
            "z->{Abu Hassan})",
            "Assignment(__any_0->{__any__}; x->{Outdoor}; y->{Beach Volleyball, Leisure}; "
            "z->{Miznon})",
            "Assignment(__any_0->{__any__}; x->{Outdoor}; y->{Beach Volleyball, Leisure}; "
            "z->{Miznon}; more->{Beach Volleyball doAt Gordon Beach})",
            "Assignment(__any_0->{__any__}; x->{Park}; y->{Picnic, Sport}; z->{Abu Hassan})",
        ]
        # the per-node scan made about 226 calls per question here
        assert calls[0] < 5 * result.questions
