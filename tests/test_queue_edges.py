"""Backoff and expiry edge cases: deadlines, attempt bounds, late answers.

Satellite coverage for the retry machinery that the fault-injection
harness (PR 5) leans on: the exact-deadline boundary, the attempt
counter hitting ``max_attempts`` exactly, and the timeout/answer race —
a question that expires while its answer is in flight must yield
``STALE`` exactly once, then be collectable again.  Answers that land
after their node was classified must not change what the node is.
"""

import pytest

from repro import OassisEngine
from repro.datasets import running_example
from repro.crowd import CrowdCache, Verdict
from repro.engine import AnswerOutcome, MemberUser
from repro.mining.state import Status
from repro.service import ServiceConfig
from repro.service.simulation import (
    DOMAINS,
    build_identical_crowd,
    serial_mismatches,
)
from repro.vocabulary import Element


@pytest.fixture(scope="module")
def demo():
    return DOMAINS["demo"]()


@pytest.fixture(scope="module")
def engine(demo):
    return OassisEngine(demo.ontology)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


def make_manager(engine, clock, **options):
    options.setdefault("question_timeout", 10.0)
    options.setdefault("backoff_base", 1.0)
    return engine.session_manager(clock=clock, **options)


class TestQueueExpiryRaces:
    """QueueManager-level: expire_pending vs. answers."""

    def _queue(self, engine):
        return engine.queue_manager(
            running_example.FRAGMENT_QUERY, sample_size=1
        )

    def test_expire_unknown_member_is_empty(self, engine):
        qm = self._queue(engine)
        (root,) = qm.space.roots()
        qm.expire_pending("ghost", root)
        assert not qm.is_registered("ghost")

    def test_expire_puts_the_node_back_unvisited(self, engine):
        qm = self._queue(engine)
        (node,) = qm.next_batch("u")
        assert qm.next_batch("u") != [node]  # handed out: not again
        qm.expire_pending("u", node)
        assert qm.next_batch("u") == [node]

    def test_expire_unpending_assignment_is_empty(self, engine):
        expired, untouched = self._queue(engine), self._queue(engine)
        for qm in (expired, untouched):
            (node,) = qm.next_batch("u")
            qm.submit_support("u", 1.0, node)
        # the answered node is no longer pending: expiring it changes
        # nothing the member is asked next
        expired.expire_pending("u", node)
        assert expired.next_batch("u", 4) == untouched.next_batch("u", 4)
        assert expired.questions_asked == untouched.questions_asked == 1

    def test_late_answer_is_stale_exactly_once(self, engine):
        qm = self._queue(engine)
        (node,) = qm.next_batch("u")
        qm.expire_pending("u", node)
        # the expired question is collectable again: re-delivered, then
        # recorded
        assert qm.next_batch("u") == [node]
        assert qm.submit_support("u", 0.8, node) is AnswerOutcome.RECORDED
        # and only once: a second answer is stale, the node not re-asked
        assert qm.submit_support("u", 0.8, node) is AnswerOutcome.STALE
        assert qm.submit_prune("u", Element("Sport"), node) is AnswerOutcome.STALE
        assert qm.questions_asked == 1
        assert node not in qm.next_batch("u", 4)

    def test_answer_first_makes_expiry_a_noop(self, engine):
        qm = self._queue(engine)
        (node,) = qm.next_batch("u")
        assert qm.submit_support("u", 0.8, node) is AnswerOutcome.RECORDED
        # the reaper lost the race: the answered node is not asked again
        qm.expire_pending("u", node)
        assert node not in qm.next_batch("u", 4)

    def test_mark_answered_suppresses_redelivery_after_expiry(self, engine):
        qm = self._queue(engine)
        (node,) = qm.next_batch("u")
        qm.expire_pending("u", node)
        # resume path seeds the member's answer map while the node is
        # back on their stack: it must not be asked again
        qm.mark_answered("u", node, 0.8)
        assert node not in qm.next_batch("u", 4)


class TestRequeue:
    def test_requeue_moves_a_queued_node_to_the_top(self, engine):
        qm = engine.queue_manager(running_example.FRAGMENT_QUERY, sample_size=1)
        (root,) = qm.next_batch("u")
        assert qm.submit_support("u", 1.0, root) is AnswerOutcome.RECORDED
        stack = qm._walks["u"].stack
        assert len(stack) >= 2
        bottom = stack[0]
        assert qm.requeue_for("u", bottom)
        assert stack.count(bottom) == 1
        assert qm.next_batch("u") == [bottom]


class TestLateAnswersOnClassifiedNodes:
    """In-flight answers for a node the closure already classified."""

    def test_answers_after_inference_do_not_make_an_msp(self, engine):
        qm = engine.queue_manager(running_example.FRAGMENT_QUERY, sample_size=2)
        (root,) = qm.space.roots()
        for member in ("a", "b"):
            assert qm.next_batch(member) == [root]
            qm.submit_support(member, 1.0, root)
        parent = qm.space.successors(root)[0]
        grandchild = qm.space.successors(parent)[0]
        for member in ("a", "b"):  # handed out while still unclassified
            assert qm.requeue_for(member, grandchild)
            assert qm.next_batch(member) == [grandchild]
        for member in ("c", "d"):
            assert qm.requeue_for(member, parent)
            assert qm.next_batch(member) == [parent]
            qm.submit_support(member, 0.0, parent)
        assert qm.state.status(grandchild) is Status.INSIGNIFICANT
        for member in ("a", "b"):
            assert qm.submit_support(member, 1.0, grandchild) is AnswerOutcome.RECORDED
        assert qm.state.status(grandchild) is Status.INSIGNIFICANT
        assert grandchild not in qm.current_msps()


class TestDecidedNodes:
    """The served walk descends through decided nodes without asking."""

    @pytest.mark.parametrize("threshold, answers", [(0.4, 1203), (0.5, 966)])
    def test_round_robin_hands_out_no_decided_node(self, threshold, answers):
        # six identical members take turns, one question each; handing out
        # decided nodes cost 1,377 and 1,107 answers for the same MSPs
        travel = DOMAINS["travel"]()
        query = travel.query(threshold)
        queue = OassisEngine(travel.ontology).queue_manager(
            query, sample_size=3, cache=CrowdCache()
        )
        users = [
            MemberUser(member, queue.space)
            for member in build_identical_crowd(travel, 6, seed=0)
        ]
        handed_out_decided = 0
        progressed = True
        while progressed:
            progressed = False
            for user in users:
                for node in queue.next_batch(user.member_id):
                    progressed = True
                    if queue.aggregator.verdict(node) is not Verdict.UNDECIDED:
                        handed_out_decided += 1
                    queue.submit_support(user.member_id, user.support(node), node)
        assert handed_out_decided == 0
        assert queue.questions_asked == answers
        served = {"s": (query, [repr(a) for a in queue.current_msps()])}
        assert serial_mismatches(
            "travel", served, crowd_size=6, sample_size=3, seed=0
        ) == []

    def _decided_root(self, engine, support):
        qm = engine.queue_manager(running_example.FRAGMENT_QUERY, sample_size=1)
        (root,) = qm.next_batch("a")
        qm.submit_support("a", support, root)
        assert qm.aggregator.verdict(root) is not Verdict.UNDECIDED
        qm.register_member("b")  # b's stack holds only the decided root
        return qm, root

    def test_decided_significant_node_yields_its_successors(self, engine):
        qm, root = self._decided_root(engine, 1.0)
        successors = list(qm.space.successors(root))
        assert qm.has_fresh_work("b")
        assert qm._walks["b"].stack == successors
        assert qm.next_batch("b") == [successors[-1]]

    def test_decided_insignificant_node_is_no_fresh_work(self, engine):
        qm, _ = self._decided_root(engine, 0.0)
        assert not qm.has_fresh_work("b")
        assert qm.next_batch("b") == []


class TestDeadlineBoundaries:
    """Service-level: the deadline comparison and config validation."""

    def test_zero_and_negative_timeouts_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(question_timeout=0.0)
        with pytest.raises(ValueError):
            ServiceConfig(question_timeout=-1.0)

    def test_question_overdue_at_exact_deadline(self, engine, demo, clock):
        manager = make_manager(engine, clock, question_timeout=10.0)
        manager.create_session(demo.query(0.4), session_id="q")
        manager.attach_member("a")
        [question] = manager.next_batch("a", k=1)
        assert question.deadline == pytest.approx(10.0)
        clock.advance(10.0 - 1e-9)
        assert manager.reap_expired() == []
        clock.advance(1e-9)
        reaped = manager.reap_expired()
        assert [q.assignment for q in reaped] == [question.assignment]

    def test_reap_with_no_in_flight_is_empty(self, engine, demo, clock):
        manager = make_manager(engine, clock)
        manager.create_session(demo.query(0.4), session_id="q")
        manager.attach_member("a")
        assert manager.reap_expired() == []


class TestAttemptBound:
    """The attempt counter must exhaust exactly at ``max_attempts``."""

    def test_retry_below_bound_then_exhaust_at_bound(self, engine, demo, clock):
        manager = make_manager(
            engine, clock, max_attempts=2, question_timeout=10.0
        )
        manager.create_session(demo.query(0.4), session_id="q", sample_size=1)
        manager.attach_member("a")
        manager.attach_member("b")
        [first] = manager.next_batch("a", k=1)
        node = first.assignment
        assert first.attempt == 1

        # attempt 1 < max_attempts: requeued with backoff, not abandoned
        clock.advance(10.0)
        assert [q.assignment for q in manager.reap_expired()] == [node]
        assert manager.next_batch("a", k=1) == []  # inside backoff window
        clock.advance(1.5)  # backoff_base * 2**0 = 1.0
        [second] = manager.next_batch("a", k=1)
        assert second.assignment == node
        assert second.attempt == 2

        # attempt 2 == max_attempts: abandoned for `a`, not retried again
        clock.advance(10.0)
        assert [q.assignment for q in manager.reap_expired()] == [node]
        clock.advance(100.0)
        assert all(
            q.assignment != node for q in manager.next_batch("a", k=4)
        )

    def test_session_completes_via_other_member_after_exhaustion(
        self, engine, demo, clock
    ):
        manager = make_manager(
            engine, clock, max_attempts=1, question_timeout=10.0
        )
        session = manager.create_session(
            demo.query(0.4), session_id="q", sample_size=1
        )
        manager.attach_member("a")
        manager.attach_member("b")
        [doomed] = manager.next_batch("a", k=1)
        clock.advance(10.0)
        manager.reap_expired()  # attempt 1 == max_attempts: reassign

        members = {
            m.member_id: m for m in demo.build_crowd(size=2)
        }
        by_service_id = {"a": members["u0"], "b": members["u1"]}
        for _ in range(10_000):
            if manager.all_done():
                break
            progress = False
            for member_id in ("a", "b"):
                for question in manager.next_batch(member_id, k=4):
                    progress = True
                    answer = by_service_id[member_id].answer_concrete(
                        _concrete(question)
                    )
                    manager.submit(question, answer.support)
            if not progress:
                manager.reap_expired()
                clock.advance(1.0)
        assert manager.all_done()
        assert session.state.value == "completed"


class TestPruneRule:
    """A served pruning click drops exactly what a batch one drops."""

    def test_served_prune_drops_a_more_extension(self):
        travel = DOMAINS["travel"]()
        engine = OassisEngine(travel.ontology)
        queue = engine.queue_manager(travel.query(0.5), more_pool=travel.more_pool)
        (root,) = queue.next_batch("m")
        # the MORE extension naming Rent Bikes only in its MORE fact
        (extension,) = [s for s in queue.space.successors(root) if s.more]
        token = Element("Rent Bikes")
        assert all(token not in values for values in extension.values.values())
        batch_user = MemberUser(travel.build_crowd(size=1, seed=0)[0], queue.space)
        assert batch_user.matches_prune(extension, token)

        assert queue.submit_prune("m", token, root) is AnswerOutcome.PRUNED
        assert queue.requeue_for("m", extension)
        assert extension not in queue.next_batch("m")


def _concrete(question):
    from repro.crowd.questions import ConcreteQuestion

    return ConcreteQuestion(question.assignment, question.fact_set)
