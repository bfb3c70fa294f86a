"""The fault-injection harness: plans, breakers, injection sites, chaos.

Three layers of coverage:

* :class:`FaultPlan` / :class:`FaultSpec` — deterministic decisions,
  declaration-order priority, ``after``/``limit`` windows, validation;
* :class:`CircuitBreaker` — the closed → open → half-open state machine,
  including the aborted-probe release;
* the manager's injection sites and quarantine behaviour under a fake
  clock, plus the end-to-end seeded chaos campaign of
  :mod:`repro.faults.chaos` (every scenario, every invariant checked).
"""

import pytest

from repro import OassisEngine
from repro.engine import AnswerOutcome
from repro.faults import (
    BreakerState,
    CircuitBreaker,
    FaultKind,
    FaultPlan,
    FaultSpec,
    MALFORMED_SUPPORT,
    SCENARIOS,
    chaos_plan,
    run_chaos_campaign,
    run_chaos_once,
    run_scenario,
)
from repro.faults.chaos import summarize_runs
from repro.service.simulation import DOMAINS


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


class TestFaultSpec:
    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError):
            FaultSpec("nowhere", FaultKind.TIMEOUT)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            FaultSpec("member.answer", FaultKind.TIMEOUT, rate=1.5)

    def test_rejects_negative_windows(self):
        with pytest.raises(ValueError):
            FaultSpec("member.answer", FaultKind.TIMEOUT, after=-1)
        with pytest.raises(ValueError):
            FaultSpec("member.answer", FaultKind.TIMEOUT, limit=-1)


class TestFaultPlan:
    def _probe(self, plan, rounds=40):
        decisions = []
        for _ in range(rounds):
            for member in ("m0", "m1", "m2"):
                decisions.append(plan.decide("member.answer", member))
        return decisions

    def test_same_seed_same_decisions(self):
        specs = (
            FaultSpec("member.answer", FaultKind.TIMEOUT, rate=0.3),
            FaultSpec("member.answer", FaultKind.DUPLICATE, rate=0.2),
        )
        first = self._probe(FaultPlan(specs, seed=7))
        second = self._probe(FaultPlan(specs, seed=7))
        assert first == second
        assert any(d is not None for d in first)

    def test_different_seed_different_decisions(self):
        specs = (FaultSpec("member.answer", FaultKind.TIMEOUT, rate=0.3),)
        assert self._probe(FaultPlan(specs, seed=0)) != self._probe(
            FaultPlan(specs, seed=1)
        )

    def test_declaration_order_wins(self):
        plan = FaultPlan(
            (
                FaultSpec("member.answer", FaultKind.MALFORMED, member="bad"),
                FaultSpec("member.answer", FaultKind.TIMEOUT, rate=1.0),
            ),
            seed=0,
        )
        assert plan.decide("member.answer", "bad") is FaultKind.MALFORMED
        assert plan.decide("member.answer", "good") is FaultKind.TIMEOUT

    def test_after_and_limit_windows(self):
        plan = FaultPlan(
            (
                FaultSpec(
                    "member.answer", FaultKind.DEPART, after=2, limit=1
                ),
            ),
            seed=0,
        )
        decisions = [plan.decide("member.answer", "m") for _ in range(6)]
        assert decisions == [
            None, None, FaultKind.DEPART, None, None, None
        ]
        assert plan.injected() == {"departure": 1}

    def test_unknown_site_raises(self):
        with pytest.raises(ValueError):
            FaultPlan().decide("nowhere")

    def test_inactive_site_fast_path(self):
        plan = FaultPlan(
            (FaultSpec("member.answer", FaultKind.TIMEOUT),), seed=0
        )
        assert plan.decide("manager.dispatch", "m") is None
        assert plan.total_injected() == 0

    def test_chaos_plan_plants_the_bad_member(self):
        plan = chaos_plan(seed=0, bad_member="m0", departing_member="m5")
        assert plan.decide("member.answer", "m0") is FaultKind.MALFORMED
        assert MALFORMED_SUPPORT > 1.0


class TestCircuitBreaker:
    def _breaker(self, **kw):
        kw.setdefault("window", 4)
        kw.setdefault("failure_threshold", 0.5)
        kw.setdefault("cooldown", 5.0)
        kw.setdefault("min_events", 4)
        return CircuitBreaker(**kw)

    def test_trips_after_error_window_fills(self):
        breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure(0.0)
            assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_count == 1

    def test_successes_keep_it_closed(self):
        breaker = self._breaker()
        breaker.record_failure(0.0)
        for _ in range(3):
            breaker.record_success(0.0)
        breaker.record_failure(0.0)  # window holds 1 failure in 4: rate 0.25
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(0.0)

    def test_half_open_probe_success_closes(self):
        breaker = self._breaker()
        for _ in range(4):
            breaker.record_failure(0.0)
        assert not breaker.allow(1.0)  # still cooling down
        assert breaker.allow(5.0)  # cooldown elapsed: half-open probe
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow(5.0)  # only one probe at a time
        breaker.record_success(5.1)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker = self._breaker()
        for _ in range(4):
            breaker.record_failure(0.0)
        assert breaker.allow(5.0)
        breaker.record_failure(5.1)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_count == 2
        assert not breaker.allow(5.2)

    def test_aborted_probe_releases_the_slot(self):
        breaker = self._breaker()
        for _ in range(4):
            breaker.record_failure(0.0)
        assert breaker.allow(5.0)
        assert not breaker.allow(5.0)
        breaker.probe_aborted()  # the probe never dispatched a question
        assert breaker.allow(5.0)  # slot released: probing may continue


def make_manager(engine, clock, **options):
    options.setdefault("question_timeout", 10.0)
    options.setdefault("backoff_base", 1.0)
    return engine.session_manager(clock=clock, **options)


class TestManagerFaultSites:
    def test_dispatch_stall(self, engine, demo, clock):
        plan = FaultPlan(
            (FaultSpec("manager.dispatch", FaultKind.TIMEOUT, limit=1),),
            seed=0,
        )
        manager = make_manager(engine, clock, faults=plan)
        manager.create_session(demo.query(0.4), session_id="q")
        manager.attach_member("a")
        assert manager.next_batch("a", k=1) == []  # injected stall
        assert len(manager.next_batch("a", k=1)) == 1

    def test_duplicate_injection_is_dropped_stale(self, engine, demo, clock):
        plan = FaultPlan(
            (FaultSpec("manager.submit", FaultKind.DUPLICATE, limit=1),),
            seed=0,
        )
        manager = make_manager(engine, clock, faults=plan)
        session = manager.create_session(
            demo.query(0.4), session_id="q", sample_size=1
        )
        manager.attach_member("a")
        [question] = manager.next_batch("a", k=1)
        assert manager.submit(question, 1.0) is AnswerOutcome.RECORDED
        # the injected second application must not double-record
        answers = session.cache.answers_for(question.assignment)
        assert answers == [("a", 1.0)]

    def test_malformed_support_rejected_then_retried(self, engine, demo, clock):
        manager = make_manager(engine, clock, max_attempts=5)
        session = manager.create_session(
            demo.query(0.4), session_id="q", sample_size=1
        )
        manager.attach_member("a")
        [question] = manager.next_batch("a", k=1)
        assert manager.submit(question, MALFORMED_SUPPORT) is (
            AnswerOutcome.REJECTED
        )
        assert session.cache.answers_for(question.assignment) == []
        clock.advance(2.0)  # ride out the rejection backoff
        [retry] = manager.next_batch("a", k=1)
        assert retry.assignment == question.assignment
        assert retry.attempt == 2
        assert manager.submit(retry, float("nan")) is AnswerOutcome.REJECTED
        clock.advance(4.0)
        [retry] = manager.next_batch("a", k=1)
        assert manager.submit(retry, 1.0) is AnswerOutcome.RECORDED
        assert session.cache.answers_for(question.assignment) == [("a", 1.0)]

    def test_breaker_quarantines_then_probes(self, engine, demo, clock):
        manager = make_manager(
            engine,
            clock,
            max_attempts=10,
            breaker_window=4,
            breaker_cooldown=5.0,
        )
        manager.create_session(demo.query(0.4), session_id="q", sample_size=2)
        manager.attach_member("bad")
        manager.attach_member("good")
        assert manager.breaker_state("bad") is BreakerState.CLOSED
        for round_number in range(4):
            [question] = manager.next_batch("bad", k=1)
            assert manager.submit(question, MALFORMED_SUPPORT) is (
                AnswerOutcome.REJECTED
            )
            if round_number < 3:
                clock.advance(40.0)  # clear the rejection backoff window
        assert manager.breaker_state("bad") is BreakerState.OPEN
        assert manager.breaker_opened_counts() == {"bad": 1, "good": 0}
        assert manager.next_batch("bad", k=1) == []  # short-circuited
        # the good member is unaffected by the bad member's quarantine
        assert len(manager.next_batch("good", k=1)) == 1
        # ride out both the 5s cooldown and the attempt-4 retry backoff
        clock.advance(10.0)
        probe = manager.next_batch("bad", k=4)
        assert len(probe) == 1
        assert manager.breaker_state("bad") is BreakerState.HALF_OPEN
        assert manager.submit(probe[0], 1.0) is AnswerOutcome.RECORDED
        assert manager.breaker_state("bad") is BreakerState.CLOSED

    def test_detach_drops_the_breaker(self, engine, demo, clock):
        manager = make_manager(engine, clock, breaker_window=4)
        manager.create_session(demo.query(0.4), session_id="q")
        manager.attach_member("a")
        assert manager.breaker_state("a") is BreakerState.CLOSED
        manager.detach_member("a")
        assert manager.breaker_state("a") is None


class TestChaosCampaign:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_run_holds_every_invariant(self, seed):
        report = run_chaos_once(seed=seed, sessions=3, max_runtime=30.0)
        assert report.violations == []
        assert report.completed_sessions == 3
        assert report.answers_recorded > 0
        assert report.faults_injected.get("malformed", 0) > 0
        assert report.breaker_opened.get("m0", 0) >= 1

    def test_campaign_aggregates_and_journals(self, tmp_path):
        campaign = run_chaos_campaign(
            (0, 1),
            sessions=2,
            durable_dir=str(tmp_path),
            max_runtime=30.0,
        )
        assert campaign["ok"] is True, [r["violations"] for r in campaign["runs"]]
        assert campaign["seeds"] == [0, 1]
        assert campaign["total_faults_injected"] > 0
        assert len(campaign["runs"]) == 2
        for run in campaign["runs"]:
            assert list(run["scenarios"]) == list(SCENARIOS)
        # every component that goes down recorded a time to recover
        for name in ("gateway", "shard", "coordinator"):
            assert campaign["mttr"][name]["incidents"] == 2
        assert campaign["mttr"]["session"] is None
        assert campaign["supervisor_restart_p95_seconds"] is not None
        # each seed journaled into its own subdirectory
        for seed in (0, 1):
            wals = list((tmp_path / f"seed-{seed}").glob("*.wal"))
            assert len(wals) == 2

    def test_slow_supervisor_restart_fails_the_campaign(self):
        def run(restart_seconds):
            return {
                "ok": True,
                "scenarios": {
                    "session": {"faults_injected": {}},
                    "client": {"faults_injected": {}},
                    "shard": {"restart_seconds": [restart_seconds]},
                },
                "mttr_seconds": {name: None for name in SCENARIOS},
            }

        assert summarize_runs([run(0.35)])["ok"] is True
        # past the 1 s p95 budget, so `repro chaos` exits non-zero
        assert summarize_runs([run(2.0)])["ok"] is False

    def test_campaign_replays_identically(self):
        # session, gateway and client run on one thread (the session loop
        # on a virtual clock, the gateway called directly): a seed is an
        # exact replay, so only the wall-clock fields may differ
        def run():
            reports = []
            for seed in (0, 1, 2):
                for name in ("session", "gateway", "client"):
                    report = run_scenario(name, seed=seed)
                    report.pop("elapsed_seconds")
                    if name == "gateway":
                        assert report.pop("mttr_seconds") is not None
                    reports.append(report)
            return reports

        first = run()
        assert all(report["ok"] for report in first), first
        assert run() == first

    def test_harness_runs_no_threads_sockets_or_sleeps(self):
        import ast
        import inspect

        import repro.faults.chaos as harness

        tree = ast.parse(inspect.getsource(harness))
        imported = {
            alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        } | {
            node.module.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
        }
        assert not imported & {"threading", "socket", "http"}
        sleeps = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "sleep"
        ]
        assert sleeps == []

    def test_crowd_too_small_for_the_planted_faults(self):
        with pytest.raises(ValueError):
            run_chaos_once(seed=0, crowd_size=4, sample_size=3)
