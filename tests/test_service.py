"""Suite for repro.service: sessions, deadlines, departures, the loop.

The unit tests drive a :class:`SessionManager` with an injectable fake
clock, so timeout / backoff / reassignment paths are exercised without
sleeping.  The integration tests run the in-process simulation and
assert the service layer's correctness oracle: every session's MSP set
equals a serial ``engine.execute`` of the same query.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro import OassisEngine
from repro.crowd.questions import ConcreteQuestion
from repro.engine import AnswerOutcome
from repro.faults import BreakerState
from repro.observability import derive_service, tracing
from repro.service import (
    MemberScript,
    ServiceConfig,
    ServiceRunner,
    SessionState,
    VirtualClock,
    run_simulation,
)
from repro.service.simulation import DOMAINS, build_identical_crowd


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture(scope="module")
def demo():
    return DOMAINS["demo"]()


@pytest.fixture(scope="module")
def engine(demo):
    return OassisEngine(demo.ontology)


@pytest.fixture()
def clock():
    return FakeClock()


def make_manager(engine, clock, **options):
    options.setdefault("question_timeout", 10.0)
    options.setdefault("backoff_base", 1.0)
    return engine.session_manager(clock=clock, **options)


def answer_for(member, question):
    return member.answer_concrete(
        ConcreteQuestion(question.assignment, question.fact_set)
    ).support


def drive_serially(manager, members, max_rounds=10_000):
    """Single-threaded pump: every member answers until quiescence."""
    by_id = {m.member_id: m for m in members}
    for member in members:
        manager.attach_member(member.member_id)
    for _ in range(max_rounds):
        if manager.all_done():
            return
        progress = False
        for member_id in manager.members():
            for question in manager.next_batch(member_id, k=4):
                progress = True
                manager.submit(question, answer_for(by_id[member_id], question))
        if not progress and not manager.all_done():  # pragma: no cover
            pytest.fail("manager stalled with open sessions")
    pytest.fail("manager did not settle")  # pragma: no cover


class TestServiceConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ServiceConfig(question_timeout=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_attempts=0)
        with pytest.raises(ValueError):
            ServiceConfig(in_flight_limit=0)

    def test_override(self):
        config = ServiceConfig().override(max_attempts=7)
        assert config.max_attempts == 7


class TestDispatch:
    def test_batch_respects_in_flight_limit(self, engine, demo, clock):
        manager = make_manager(engine, clock, in_flight_limit=2)
        manager.create_session(demo.query(0.4), session_id="q")
        manager.attach_member("u0")
        # answer the lattice root so its successors open up the frontier
        [root] = manager.next_batch("u0", k=1)
        manager.submit(root, 1.0)
        batch = manager.next_batch("u0", k=10)
        assert len(batch) == 2
        # at the cap: nothing more until an answer or timeout frees a slot
        assert manager.next_batch("u0", k=10) == []
        manager.submit(batch[0], 1.0)
        assert len(manager.next_batch("u0", k=10)) == 1

    def test_unattached_member_rejected(self, engine, demo, clock):
        manager = make_manager(engine, clock)
        manager.create_session(demo.query(0.4))
        with pytest.raises(KeyError):
            manager.next_batch("ghost")

    def test_round_robin_spans_sessions(self, engine, demo, clock):
        manager = make_manager(engine, clock, in_flight_limit=8)
        manager.create_session(demo.query(0.4), session_id="a")
        manager.create_session(demo.query(0.5), session_id="b")
        manager.attach_member("u0")
        batch = manager.next_batch("u0", k=4)
        assert {q.session_id for q in batch} == {"a", "b"}

    def test_serial_drive_matches_engine_execute(self, engine, demo, clock):
        manager = make_manager(engine, clock)
        session = manager.create_session(demo.query(0.4), sample_size=2)
        members = build_identical_crowd(demo, 3)
        drive_serially(manager, members)
        assert session.state is SessionState.COMPLETED
        serial = engine.execute(
            demo.query(0.4), build_identical_crowd(demo, 3), sample_size=2
        )
        assert sorted(map(repr, session.msps())) == sorted(
            map(repr, serial.all_msps)
        )


class TestTimeoutsAndRetries:
    def test_timeout_requeues_with_backoff(self, engine, demo, clock):
        manager = make_manager(
            engine, clock, question_timeout=5.0, backoff_base=2.0, max_attempts=3
        )
        manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        [first] = manager.next_batch("u0", k=1)
        assert first.attempt == 1
        clock.advance(5.0)
        reaped = manager.reap_expired()
        assert [q.assignment for q in reaped] == [first.assignment]
        # inside the backoff window the node is deferred, not redelivered
        # (and it is the only frontier node, so the batch comes back empty)
        assert manager.next_batch("u0", k=4) == []
        clock.advance(2.0)
        batch = manager.next_batch("u0", k=4)
        retried = {q.assignment: q for q in batch}
        assert first.assignment in retried
        assert retried[first.assignment].attempt == 2

    def test_exhausted_retries_reassign(self, engine, demo, clock):
        manager = make_manager(
            engine, clock, question_timeout=5.0, max_attempts=1, backoff_base=0.0
        )
        manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        manager.attach_member("u1")
        [question] = manager.next_batch("u0", k=1)
        clock.advance(5.0)
        manager.reap_expired()
        # the node jumped to the top of the other member's queue ...
        [handed] = manager.next_batch("u1", k=1)
        assert handed.assignment == question.assignment
        # ... and is never handed to the original member again
        assigned_to_u0 = {q.assignment for q in manager.next_batch("u0", k=8)}
        assert question.assignment not in assigned_to_u0

    def test_late_answer_is_stale(self, engine, demo, clock):
        manager = make_manager(engine, clock, question_timeout=5.0)
        manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        [question] = manager.next_batch("u0", k=1)
        clock.advance(5.0)
        manager.reap_expired()
        assert manager.submit(question, 1.0) is AnswerOutcome.STALE

    def test_pass_abandons_node_for_member(self, engine, demo, clock):
        manager = make_manager(engine, clock)
        manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        [question] = manager.next_batch("u0", k=1)
        assert manager.submit(question, None) is AnswerOutcome.PASSED
        assigned = {q.assignment for q in manager.next_batch("u0", k=8)}
        assert question.assignment not in assigned


class TestDeadlineScaling:
    """PR 7 satellite: deadlines scale with the member's queue depth.

    A member answering a held batch serially cannot even look at its
    n-th question before finishing the n-1 ahead of it, so a fixed
    per-question clock reaps questions the member was never slow on.
    """

    def test_deadline_scales_with_in_flight_position(self, engine, demo, clock):
        manager = make_manager(
            engine, clock, question_timeout=5.0, backoff_base=0.0, batch_size=3
        )
        # one frontier node per session; three sessions let one member
        # hold a batch of three simultaneously
        for _ in range(3):
            manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        batch = manager.next_batch("u0", k=3)
        assert len(batch) == 3
        assert [q.deadline for q in batch] == [5.0, 10.0, 15.0]
        clock.advance(5.0)
        # only the head-of-queue question is overdue; the rest are still
        # inside their scaled windows
        assert [q.assignment for q in manager.reap_expired()] == [
            batch[0].assignment
        ]
        clock.advance(5.0)
        assert [q.assignment for q in manager.reap_expired()] == [
            batch[1].assignment
        ]

    def test_position_counts_only_that_member(self, engine, demo, clock):
        manager = make_manager(engine, clock, question_timeout=5.0, batch_size=4)
        for _ in range(3):
            manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        manager.attach_member("u1")
        held = manager.next_batch("u0", k=2)
        assert [q.deadline for q in held] == [5.0, 10.0]
        # u1 holds nothing, so its first question gets a single window
        # regardless of u0's queue depth
        [first] = manager.next_batch("u1", k=1)
        assert first.deadline == 5.0


class TestNextWakeup:
    """The instant the in-process loop jumps to when a round serves nobody."""

    def test_idle_manager_has_no_wakeup(self, engine, demo, clock):
        manager = make_manager(engine, clock)
        manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        assert manager.next_wakeup() is None

    def test_in_flight_deadline_sets_it(self, engine, demo, clock):
        manager = make_manager(engine, clock, question_timeout=5.0)
        manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        [question] = manager.next_batch("u0", k=1)
        assert manager.next_wakeup() == question.deadline == 5.0

    def test_backoff_window_sets_it(self, engine, demo, clock):
        manager = make_manager(
            engine, clock, question_timeout=5.0, backoff_base=2.0
        )
        manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        manager.next_batch("u0", k=1)
        clock.advance(5.0)
        assert len(manager.reap_expired()) == 1
        # nothing in flight any more: only the backoff end is pending
        assert manager.in_flight() == []
        assert manager.next_wakeup() == 7.0

    def test_open_breaker_sets_it(self, engine, demo, clock):
        manager = make_manager(
            engine,
            clock,
            question_timeout=5.0,
            backoff_base=0.0,
            breaker_window=2,
            breaker_min_events=2,
            breaker_failure_threshold=0.5,
            breaker_cooldown=30.0,
        )
        manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        for _ in range(2):
            assert manager.next_batch("u0", k=1)
            clock.advance(5.0)
            manager.reap_expired()
        assert manager.breaker_state("u0") is BreakerState.OPEN
        assert manager.in_flight() == []
        # the breaker tripped at t=10 with a 30s cooldown
        assert manager.next_wakeup() == 40.0

    def test_past_instants_are_ignored(self, engine, demo, clock):
        manager = make_manager(engine, clock, question_timeout=5.0)
        manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        manager.next_batch("u0", k=1)
        clock.advance(6.0)  # overdue but not yet reaped
        assert manager.next_wakeup() is None


class TestDepartures:
    def test_departure_reassigns_in_flight(self, engine, demo, clock):
        manager = make_manager(engine, clock)
        manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        manager.attach_member("u1")
        [question] = manager.next_batch("u0", k=1)
        manager.detach_member("u0")
        assert manager.members() == ["u1"]
        with pytest.raises(KeyError):
            manager.next_batch("u0")
        [handed] = manager.next_batch("u1", k=1)
        assert handed.assignment == question.assignment

    def test_departure_reassigns_each_held_node_once(self, engine, demo, clock):
        manager = make_manager(engine, clock, batch_size=2)
        sessions = [manager.create_session(demo.query(0.4)) for _ in range(2)]
        manager.attach_member("u0")
        manager.attach_member("u1")
        for root in manager.next_batch("u0", k=2):
            assert manager.submit(root, 1.0) is AnswerOutcome.RECORDED
        # one node below the root per session: on nobody else's stack yet
        held = manager.next_batch("u0", k=2)
        assert len(held) == 2
        with tracing() as tracer:
            assert manager.detach_member("u0") == len(held)
        assert tracer.value("service.reassigned") == len(held)
        assert {q.session_id for q in held} == {s.session_id for s in sessions}
        for question in held:
            stack = manager.session(question.session_id).queue._walks["u1"].stack
            assert stack.count(question.assignment) == 1

    def test_all_members_gone_completes_sessions(self, engine, demo, clock):
        manager = make_manager(engine, clock)
        session = manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        manager.next_batch("u0", k=1)
        manager.detach_member("u0")
        assert manager.all_done()
        assert session.state is SessionState.COMPLETED


class TestLifecycle:
    def test_cancel_stops_dispatch(self, engine, demo, clock):
        manager = make_manager(engine, clock)
        session = manager.create_session(demo.query(0.4), session_id="victim")
        manager.attach_member("u0")
        assert manager.cancel_session("victim")
        assert session.state is SessionState.CANCELLED
        assert manager.next_batch("u0", k=4) == []
        assert manager.all_done()
        assert not manager.cancel_session("victim")  # already settled

    def test_duplicate_session_id_rejected(self, engine, demo, clock):
        manager = make_manager(engine, clock)
        manager.create_session(demo.query(0.4), session_id="dup")
        with pytest.raises(ValueError):
            manager.create_session(demo.query(0.4), session_id="dup")

    def test_duplicate_session_id_rejected_before_compiling(self, engine, demo, clock):
        manager = make_manager(engine, clock)
        manager.create_session(demo.query(0.4), session_id="dup")
        with tracing() as tracer:
            with pytest.raises(ValueError, match="already exists"):
                manager.create_session("garbage ((", session_id="dup")
            with pytest.raises(ValueError, match="already exists"):
                manager.create_session(demo.query(0.5), session_id="dup")
        assert tracer.value("sparql.patterns.matched") == 0

    def test_snapshot_resume_answers_for_free(self, engine, demo, clock):
        manager = make_manager(engine, clock)
        first = manager.create_session(demo.query(0.4), sample_size=2)
        members = build_identical_crowd(demo, 3)
        drive_serially(manager, members)
        snapshot = manager.snapshot(first.session_id)
        resumed = manager.create_session(
            demo.query(0.4),
            session_id="resumed",
            cache=snapshot,
            resume=True,
            sample_size=2,
        )
        assert resumed.resumed_answers == snapshot.total_answers()
        # the same crowd continues from the cached frontier: the session
        # settles with identical MSPs and zero new questions asked
        assert manager.all_done()
        assert resumed.state is SessionState.COMPLETED
        assert resumed.questions_asked() == 0
        assert sorted(map(repr, resumed.msps())) == sorted(
            map(repr, first.msps())
        )


class TestConcurrentService:
    def test_eight_sessions_match_serial(self):
        with tracing() as tracer:
            report = run_simulation(
                domain="demo",
                sessions=8,
                crowd_size=6,
                sample_size=3,
                drop_every=5,
                departures=1,
                question_timeout=0.2,
                max_runtime=120.0,
                verify=True,
            )
        assert not report["timed_out"], "serving loop failed to settle"
        states = {info["state"] for info in report["sessions"].values()}
        assert states == {"completed"}
        assert report["verified"], report["mismatches"]
        # deadlines scale with a member's in-flight position, so nearly
        # every reaped question is an injected drop: reaps beyond the
        # drops stay at or below 2% of the answers
        questions = derive_service(tracer.report()["counters"])["questions"]
        injected = questions["dispatched"] // 5
        excess = max(0, questions["timeouts"] - injected)
        assert excess <= 0.02 * questions["answered"], questions

    def test_runner_emits_service_counters(self, engine, demo):
        manager = engine.session_manager(
            question_timeout=0.2, backoff_base=0.01, clock=VirtualClock()
        )
        manager.create_session(demo.query(0.4), sample_size=2)
        scripts = [
            MemberScript(member, drop_every=4 if index == 0 else 0)
            for index, member in enumerate(build_identical_crowd(demo, 3))
        ]
        with tracing() as tracer:
            report = ServiceRunner(manager, scripts, max_runtime=60.0).run()
        assert not report["timed_out"]
        service = derive_service(tracer.report()["counters"])
        assert service is not None
        assert service["sessions"]["completed"] == 1
        assert service["questions"]["dispatched"] > 0
        assert service["questions"]["timeouts"] > 0  # the dropper forced reaps

    def test_dropped_questions_cost_no_wall_time(self):
        # every third question is ignored and would hold its member for
        # 30s of real time; the loop jumps its virtual clock instead
        started = time.perf_counter()
        report = run_simulation(
            domain="demo", sessions=2, drop_every=3, question_timeout=30.0
        )
        assert time.perf_counter() - started < 10.0
        assert not report["timed_out"]
        assert report["verified"], report["mismatches"]
        assert report["virtual_seconds"] >= 30.0

    def test_sample_larger_than_the_crowd_is_rejected(self):
        with pytest.raises(ValueError, match="need 1 <= sample_size <= crowd_size"):
            run_simulation(domain="demo", sessions=1, crowd_size=2, sample_size=3,
                           max_runtime=5.0)

    def test_runner_needs_a_virtual_clock(self, engine, demo):
        manager = engine.session_manager()
        scripts = [MemberScript(m) for m in build_identical_crowd(demo, 3)]
        with pytest.raises(TypeError):
            ServiceRunner(manager, scripts)

    def test_question_count_independent_of_hash_seed(self):
        # one travel session (identical members, sample 3, threshold 0.4)
        # served in two interpreters: the walk pops successors in an
        # order that must not depend on PYTHONHASHSEED
        src = str(Path(repro.__file__).resolve().parents[1])
        script = (
            "from repro.service import run_simulation\n"
            "report = run_simulation(domain='travel', sessions=1, "
            "thresholds=(0.4,), verify=False)\n"
            "print(report['questions_answered'])\n"
        )
        counts = []
        for hash_seed in ("0", "1"):
            run = subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src),
                capture_output=True,
                text=True,
                check=True,
            )
            counts.append(int(run.stdout.split()[-1]))
        assert counts[0] > 0
        assert counts[0] == counts[1]
