"""Tests for the shard fleet supervisor (``repro.service.supervisor``).

The pure pieces (config, incident bookkeeping, the alive-aware ring
churn that degraded mode rides on) get direct unit tests; detection and
recovery are exercised against real spawned worker processes — a ping
answered by a live shard, a SIGKILLed worker caught by exit-code watch,
a SIGSTOP'd worker caught by the missed-heartbeat path, and the
degrade-after-budget fallback.  The end-to-end campaigns run under the
serial-MSP-identity oracle, supervision on: the restart path through
the ``shard`` scenario of :mod:`repro.faults.chaos`, the degrade path
through a fleet with a restart budget of zero.
"""

import os
import signal
import time

import pytest

from repro.service import ShardSupervisor, SupervisorConfig
from repro.faults import run_scenario
from repro.service.shard import HashRing, ShardCoordinator, split_quota
from repro.service.shard.worker import member_ids
from repro.service.simulation import DOMAINS, serial_mismatches

DEADLINE = 30.0  # per-test wall budget for spawn + detect + restart


def make_coordinator(supervisor, **overrides):
    options = dict(shards=2, crowd_size=6, sample_size=3, domain="demo", seed=0)
    options.update(overrides)
    return ShardCoordinator(DOMAINS["demo"](), supervisor=supervisor, **options)


def tick_until(supervisor, coordinator, predicate, deadline=DEADLINE):
    """Drive the supervision loop by hand until ``predicate`` holds."""
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        supervisor.tick(coordinator)
        if predicate():
            return
        coordinator._drain(0.02)
    raise AssertionError(f"supervisor never converged: {supervisor.report()}")


class TestConfigAndReport:
    def test_defaults(self):
        cfg = SupervisorConfig()
        assert cfg.heartbeat_interval < cfg.heartbeat_timeout
        assert cfg.max_restarts >= 1
        assert cfg.restart_backoff > 0

    def test_empty_report_shape(self):
        report = ShardSupervisor().report()
        assert report["deaths"] == []
        assert report["restarts"] == 0
        assert report["restart_failures"] == 0
        assert report["degraded"] == []
        assert report["restart_seconds"] == []
        assert report["restart_p95_seconds"] is None

    def test_record_death_dedupes_per_incident(self):
        supervisor = ShardSupervisor()
        supervisor.record_death(1, "missed heartbeat")
        supervisor.record_death(1, "process exited (code -9)")
        # one open incident per shard: the second report is the same
        # corpse seen again, not a new death
        assert supervisor.deaths == [{"shard": 1, "reason": "missed heartbeat"}]

    def test_restart_p95_is_nearest_rank(self):
        supervisor = ShardSupervisor()
        supervisor.restart_seconds = [0.1, 0.2, 0.3, 0.4, 10.0]
        assert supervisor.report()["restart_p95_seconds"] == 10.0


class TestAliveAwareRing:
    """The churn property degraded mode rides on (``docs/SHARDING.md``)."""

    def test_only_dead_shards_members_move(self):
        ring = HashRing(3)
        members = member_ids(60)
        before = ring.partition(members)
        after = ring.partition(members, alive={0, 2})
        assert after[1] == []  # the dead shard owns nothing
        for survivor in (0, 2):
            assert set(before[survivor]) <= set(after[survivor])
        assert sorted(sum(after, [])) == sorted(members)

    def test_reassignment_is_deterministic(self):
        members = member_ids(40)
        assert HashRing(3).partition(members, alive={1, 2}) == HashRing(
            3
        ).partition(members, alive={1, 2})

    def test_empty_alive_set_rejected(self):
        ring = HashRing(2)
        with pytest.raises(ValueError):
            ring.shard_of("m0", alive=set())

    def test_degraded_quota_still_sums(self):
        ring = HashRing(3)
        partition = ring.partition(member_ids(9), alive={0, 1})
        quotas = split_quota(3, [len(p) for p in partition])
        assert sum(quotas) == 3
        assert quotas[2] == 0


class TestDetectionAndRestart:
    def test_ping_answered_by_live_shard(self):
        supervisor = ShardSupervisor(SupervisorConfig(heartbeat_interval=0.01))
        coordinator = make_coordinator(supervisor, shards=1)
        try:
            coordinator.start()
            handle = coordinator._handles[0]
            assert coordinator.ping_shard(0)
            assert handle.ping_sent is not None
            deadline = time.monotonic() + DEADLINE
            while handle.ping_sent is not None:
                assert time.monotonic() < deadline, "pong never arrived"
                coordinator._drain(0.02)
            assert handle.alive
            assert supervisor.deaths == []
        finally:
            coordinator.close()

    def test_process_exit_detected_and_restarted(self):
        supervisor = ShardSupervisor(SupervisorConfig(restart_backoff=0.01))
        coordinator = make_coordinator(supervisor)
        try:
            coordinator.start()
            victim = coordinator._handles[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + DEADLINE
            while victim.process.is_alive():
                assert time.monotonic() < deadline, "worker never exited"
                time.sleep(0.01)
            tick_until(
                supervisor, coordinator, lambda: supervisor.restarts >= 1
            )
            assert supervisor.deaths[0]["shard"] == 0
            assert "process exited" in supervisor.deaths[0]["reason"]
            assert victim.alive  # respawned, ready frame seen
            report = supervisor.report()
            assert len(report["restart_seconds"]) == 1
            assert report["restart_p95_seconds"] is not None
        finally:
            coordinator.close()

    def test_hang_caught_by_missed_heartbeat(self):
        supervisor = ShardSupervisor(
            SupervisorConfig(
                heartbeat_interval=0.05,
                heartbeat_timeout=0.2,
                restart_backoff=0.01,
            )
        )
        coordinator = make_coordinator(supervisor, shards=1)
        try:
            coordinator.start()
            handle = coordinator._handles[0]
            coordinator.hang_shard(0)  # SIGSTOP: alive process, dead protocol
            tick_until(
                supervisor, coordinator, lambda: supervisor.restarts >= 1
            )
            assert supervisor.deaths[0]["reason"] == "missed heartbeat"
            assert handle.alive
        finally:
            coordinator.close()

    def test_degrade_after_restart_budget_spent(self):
        supervisor = ShardSupervisor(SupervisorConfig(max_restarts=0))
        coordinator = make_coordinator(supervisor, shards=2)
        try:
            coordinator.start()
            coordinator.kill_shard(0)
            # first tick adopts the corpse, a later one degrades it
            tick_until(
                supervisor, coordinator, lambda: supervisor.degraded == [0]
            )
            assert coordinator.retired_shards() == [0]
            assert coordinator.partitions[0] == []
            flat = sorted(sum(coordinator.partitions, []))
            assert flat == sorted(member_ids(coordinator.crowd_size))
            assert sum(coordinator.quotas) == coordinator.sample_size
            # the incident is closed: further ticks change nothing
            supervisor.tick(coordinator)
            assert supervisor.degraded == [0]
        finally:
            coordinator.close()


class TestSupervisedCampaigns:
    """End to end under the serial-MSP-identity oracle."""

    def test_supervised_kill_auto_restart_identity(self):
        report = run_scenario(
            "shard", seed=0, sessions=3, crowd_size=9, max_runtime=120.0
        )
        assert report["ok"], report["violations"]
        assert report["killed_shard"] is not None
        assert report["supervisor"]["restarts"] >= 1
        assert report["mttr_seconds"] is not None
        assert report["mismatches"] == []

    def test_supervised_degrade_identity(self, tmp_path):
        # a restart budget of zero forces the degrade path: the victim
        # is retired, its members re-hash onto the survivors, and the
        # campaign must still land on the serial MSP set
        demo = DOMAINS["demo"]()
        queries = {
            f"demo-{i}": demo.query(t) for i, t in enumerate((0.2, 0.3, 0.4))
        }

        def kill(coordinator):
            # fires once: with no restart budget shard 1 never comes back
            if coordinator.nodes_classified >= 4 and 1 in coordinator.alive_shards():
                coordinator.kill_shard(1)

        supervisor = ShardSupervisor(SupervisorConfig(max_restarts=0))
        coordinator = make_coordinator(
            supervisor, shards=3, crowd_size=9, durable_dir=tmp_path,
            chaos_hook=kill,
        )
        try:
            coordinator.start()
            for session_id, query in queries.items():
                coordinator.create_session(query, session_id)
            coordinator.serve()
        finally:
            coordinator.close()
        report = coordinator.report()
        assert report["supervisor"]["degraded"] == [1]
        assert report["retired_shards"] == [1]
        assert not report["timed_out"]
        served = {
            session.session_id: (
                queries[session.session_id],
                [repr(a) for a in session.queue.current_msps()],
            )
            for session in coordinator.sessions()
        }
        assert serial_mismatches(
            "demo", served, crowd_size=9, sample_size=3, seed=0
        ) == []
