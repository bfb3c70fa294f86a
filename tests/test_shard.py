"""Tests for the process-sharded serving layer (``repro.service.shard``).

The pure pieces (hash ring, quota split, wire framing, shared-memory
closures) get direct unit tests; the coordinator is exercised end to end
through :func:`run_sharded_simulation` under the serial-MSP-identity
oracle, and the kill-one-shard → WAL-restore path through the ``shard``
scenario of :mod:`repro.faults.chaos`.
Worker processes use the ``spawn`` start method, so every end-to-end
test here actually crosses a process boundary.
"""

import socket

import pytest

from repro.engine.engine import OassisEngine
from repro.service.shard import (
    DEFAULT_REPLICAS,
    HashRing,
    ShardCoordinator,
    run_sharded_simulation,
    split_quota,
)
from repro.faults import run_scenario
from repro.faults.chaos import _pick_victim, _shard_verdict
from repro.service.shard.closures import SharedClosures, adopt_shared_closures
from repro.service.shard.protocol import (
    MAX_FRAME_BYTES,
    FRAME_HEADER,
    ProtocolError,
    recv_frame,
    runs_clip,
    runs_merge,
    runs_total,
    send_frame,
)
from repro.service.shard.worker import member_ids
from repro.service.simulation import DOMAINS, run_simulation


class TestHashRing:
    def test_partition_covers_members_exactly_once(self):
        ring = HashRing(3)
        members = member_ids(50)
        partition = ring.partition(members)
        assert sorted(sum(partition, [])) == sorted(members)

    def test_partition_is_process_independent(self):
        # two independent instances (as coordinator and worker build
        # them) must agree on every placement
        members = member_ids(200)
        first = HashRing(4).partition(members)
        second = HashRing(4).partition(members)
        assert first == second

    def test_shard_of_matches_partition(self):
        ring = HashRing(4)
        members = member_ids(40)
        partition = ring.partition(members)
        for shard, mine in enumerate(partition):
            for member in mine:
                assert ring.shard_of(member) == shard

    def test_single_shard_takes_everything(self):
        ring = HashRing(1, replicas=DEFAULT_REPLICAS)
        assert ring.partition(member_ids(10)) == [member_ids(10)]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, replicas=0)


class TestSplitQuota:
    def test_sums_to_total_and_respects_weights(self):
        weights = [3, 1, 0, 2]
        quota = split_quota(4, weights)
        assert sum(quota) == 4
        assert all(q <= w for q, w in zip(quota, weights))
        assert quota[2] == 0  # empty shard never gets quota

    def test_deterministic(self):
        assert split_quota(5, [2, 2, 2]) == split_quota(5, [2, 2, 2])

    def test_total_beyond_capacity_rejected(self):
        with pytest.raises(ValueError):
            split_quota(7, [2, 2, 2])


class TestProtocol:
    def roundtrip(self, payload):
        a, b = socket.socketpair()
        try:
            send_frame(a, payload)
            return recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_frame_roundtrip(self):
        payload = {"t": "delta", "qid": 7, "runs": [[0.5, 3]]}
        assert self.roundtrip(payload) == payload

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_torn_frame_raises(self):
        a, b = socket.socketpair()
        try:
            # a length prefix promising more bytes than ever arrive —
            # the kill-mid-conversation case
            a.sendall(FRAME_HEADER.pack(100) + b'{"t":')
            a.close()
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_claim_rejected_without_allocating(self):
        a, b = socket.socketpair()
        try:
            a.sendall(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_untyped_payload_rejected(self):
        a, b = socket.socketpair()
        try:
            body = b'{"qid": 1}'
            a.sendall(FRAME_HEADER.pack(len(body)) + body)
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_runs_helpers(self):
        runs = []
        runs_merge(runs, 1.0)
        runs_merge(runs, 1.0, 2)
        runs_merge(runs, 0.0)
        assert runs == [[1.0, 3], [0.0, 1]]
        assert runs_total(runs) == 4
        assert runs_clip(runs, 3) == [[1.0, 3]]
        assert runs_clip(runs, 4) == runs


class TestSharedClosures:
    def test_export_adopt_roundtrip(self):
        exporter = DOMAINS["demo"]().ontology.vocabulary
        adopter = DOMAINS["demo"]().ontology.vocabulary
        shared = SharedClosures(exporter)
        try:
            adopt_shared_closures(shared.name, adopter)
        finally:
            shared.unlink()
        # adopted closures answer exactly like locally compiled ones
        for order in ("element_order", "relation_order"):
            assert getattr(adopter, order).closure_signature() == getattr(
                exporter, order
            ).closure_signature()

    def test_structural_mismatch_rejected(self):
        exporter = DOMAINS["demo"]().ontology.vocabulary
        stranger = DOMAINS["travel"]().ontology.vocabulary
        shared = SharedClosures(exporter)
        try:
            with pytest.raises(ValueError):
                adopt_shared_closures(shared.name, stranger)
        finally:
            shared.unlink()

    def test_unlink_is_idempotent(self):
        shared = SharedClosures(DOMAINS["demo"]().ontology.vocabulary)
        shared.unlink()
        shared.unlink()


class TestShardedIdentity:
    """The tentpole oracle: serial MSP identity at every shard count."""

    # (crowd size, sample size, crowd size of the serial check): the
    # demo crowd, and a 1,000-member crowd checked on 10 members
    @pytest.mark.parametrize(
        "shards, crowd",
        [pytest.param(n, (6, 3, None), id=str(n)) for n in (1, 2, 3, 4)]
        + [pytest.param(n, (1_000, 10, 10), id=f"{n}-crowd1000") for n in (1, 2, 4)],
    )
    def test_identity_across_shard_counts(self, shards, crowd):
        crowd_size, sample_size, verify_crowd_size = crowd
        report = run_sharded_simulation(
            domain="demo", shards=shards, sessions=4, crowd_size=crowd_size,
            sample_size=sample_size, max_runtime=120.0, verify=True, seed=0,
            verify_crowd_size=verify_crowd_size,
        )
        assert report["verified"], report["mismatches"]
        assert not report["timed_out"]
        states = [info["state"] for info in report["sessions"].values()]
        assert states == ["completed"] * 4
        assert len(report["partition_sizes"]) == shards
        assert sum(report["partition_sizes"]) == crowd_size
        assert sum(report["quotas"]) == sample_size

    def test_shards_never_recompile_closures(self):
        report = run_sharded_simulation(
            domain="demo", shards=2, sessions=2, crowd_size=6,
            sample_size=3, verify=False, seed=0,
        )
        assert all(
            stats["compiles"] == 0 for stats in report["shard_stats"].values()
        )

    def test_durable_runs_replay_wals_on_restart(self, tmp_path):
        first = run_sharded_simulation(
            domain="demo", shards=2, sessions=2, crowd_size=6,
            sample_size=3, verify=False, seed=0, durable_dir=tmp_path,
        )
        assert first["wal_replayed"] == 0
        again = run_sharded_simulation(
            domain="demo", shards=2, sessions=2, crowd_size=6,
            sample_size=3, verify=True, seed=0, durable_dir=tmp_path,
        )
        # the second fleet starts from the first fleet's journals and
        # still lands on the serial MSP set
        assert again["wal_replayed"] > 0
        assert again["verified"], again["mismatches"]

    def test_verify_crowd_size_validated(self):
        with pytest.raises(ValueError):
            run_sharded_simulation(
                domain="demo", shards=1, sessions=1, crowd_size=6,
                sample_size=3, verify_crowd_size=2,
            )


class TestKillRestore:
    def test_kill_one_shard_wal_restore_identity(self):
        result = run_scenario("shard", seed=0, max_runtime=120.0)
        assert result["ok"], result["violations"]
        assert result["killed_shard"] is not None
        assert result["supervisor"]["restarts"] >= 1
        assert result["mismatches"] == []

    @pytest.mark.parametrize("seed", [2, 5])
    def test_every_seed_kills_a_shard_that_serves(self, seed):
        # six members split [1, 4, 1] across three shards, so the sample
        # of three is split [1, 2, 0]: killing shard 2 (seed % shards at
        # seeds 2 and 5) would replay nothing and re-send nothing
        result = run_scenario("shard", seed=seed, max_runtime=120.0)
        assert result["ok"], result["violations"]
        assert result["quotas"][result["killed_shard"]] > 0
        assert result["wal_replayed"] + result["asks_resent"] > 0

    def test_victim_is_picked_among_shards_with_a_quota(self):
        assert [_pick_victim(seed, [1, 2, 0]) for seed in range(4)] == [0, 1, 0, 1]
        assert [_pick_victim(seed, [2, 1, 0]) for seed in range(3)] == [0, 1, 0]

    def test_a_kill_that_replays_and_resends_nothing_is_a_violation(self):
        restarted = {"restarts": 1, "asks_resent": 0}
        assert _shard_verdict(0, [1, 2, 0], restarted, wal_replayed=3) == []
        assert _shard_verdict(
            0, [1, 2, 0], {"restarts": 1, "asks_resent": 2}, wal_replayed=0
        ) == []
        vacuous = _shard_verdict(2, [1, 2, 0], restarted, wal_replayed=0)
        assert any("no answer quota" in v for v in vacuous)
        assert any("vacuous" in v for v in vacuous)
        assert _shard_verdict(None, [1, 2, 0], restarted, 0) == [
            "shard kill never triggered"
        ]


class TestFacadeAndRouting:
    def test_run_simulation_routes_shards(self):
        report = run_simulation(domain="demo", sessions=2, shards=2,
                                crowd_size=6, sample_size=3, verify=True)
        assert report["shards"] == 2
        assert report["verified"], report["mismatches"]

    def test_thread_mode_fault_knobs_rejected_in_shard_mode(self):
        with pytest.raises(ValueError, match="drop_every"):
            run_simulation(domain="demo", sessions=2, shards=2, drop_every=5)

    def test_engine_facade_builds_coordinator(self):
        demo = DOMAINS["demo"]()
        engine = OassisEngine(demo.ontology)
        coordinator = engine.shard_coordinator(
            demo, shards=2, crowd_size=6, sample_size=3, domain="demo"
        )
        assert isinstance(coordinator, ShardCoordinator)
        # construction is cheap and spawn-free; start() is what forks
        assert coordinator.shards == 2

    def test_zero_shards_stays_in_process(self):
        report = run_simulation(domain="demo", sessions=1,
                                shards=0, crowd_size=6, sample_size=3,
                                verify=False, max_runtime=60.0)
        assert "shards" not in report
