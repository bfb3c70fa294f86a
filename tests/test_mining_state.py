"""Unit tests for ClassificationState and the Observation 4.4 inference."""

import pytest

from repro.assignments import Assignment, ExplicitDAG, QueryAssignmentSpace
from repro.datasets import running_example
from repro.mining import ClassificationState, Status
from repro.oassisql import parse_query
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
