"""Durability and crash recovery: WAL journal, checkpoints, kill-resume.

The tentpole guarantee of PR 5, tested end to end:

* :class:`DurableCrowdCache` — write-ahead journaling, idempotent
  application, torn-tail tolerance, atomic compaction;
* session checkpoints — atomic write, versioned schema, periodic
  refresh;
* :func:`resolve_journal` — string keys map back to live assignments by
  walking the lattice from its roots;
* the **recovery identity**: a session killed mid-run (handles
  abandoned, nothing closed — a simulated SIGKILL) and restored from
  journal + checkpoint reaches exactly the MSP set of an uninterrupted
  serial run, across seeds and across domains.
"""

import json

import pytest

from repro import OassisEngine
from repro.crowd.journal import DurableCrowdCache, JournalRecord, replay_journal
from repro.crowd.questions import ConcreteQuestion
from repro.observability import atomic_write_json, atomic_write_text
from repro.service import read_checkpoint, resolve_journal, restore_session
from repro.service.session import CHECKPOINT_VERSION
from repro.service.simulation import DOMAINS, build_identical_crowd
from repro.datasets import culinary


@pytest.fixture(scope="module")
def demo():
    return DOMAINS["demo"]()


@pytest.fixture(scope="module")
def engine(demo):
    return OassisEngine(demo.ontology)


class TestAtomicWrite:
    def test_json_roundtrip_without_droppings(self, tmp_path):
        target = tmp_path / "deep" / "report.json"
        atomic_write_json(target, {"b": 2, "a": [1, 2]})
        assert json.loads(target.read_text()) == {"a": [1, 2], "b": 2}
        leftovers = [p for p in target.parent.iterdir() if p != target]
        assert leftovers == []

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "report.json"
        atomic_write_json(target, {"old": True})
        atomic_write_json(target, {"new": True})
        assert json.loads(target.read_text()) == {"new": True}

    def test_text_helper(self, tmp_path):
        target = tmp_path / "note.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"


class TestJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        path = tmp_path / "answers.wal"
        with DurableCrowdCache(path) as cache:
            cache.record("nodeA", "m0", 0.5)
            cache.record("nodeA", "m1", 0.75)
            cache.record("nodeB", "m0", 0.25)
        records, corrupt = replay_journal(path)
        assert corrupt == 0
        assert [(r.key, r.member, r.support) for r in records] == [
            ("'nodeA'", "m0", 0.5),
            ("'nodeA'", "m1", 0.75),
            ("'nodeB'", "m0", 0.25),
        ]

    def test_duplicate_application_is_idempotent(self, tmp_path):
        path = tmp_path / "answers.wal"
        with DurableCrowdCache(path) as cache:
            cache.record("node", "m0", 0.5)
            cache.record("node", "m0", 0.5)  # duplicate delivery
            assert cache.answers_for("node") == [("m0", 0.5)]
        records, _ = replay_journal(path)
        assert len(records) == 1

    def test_reopen_replays_and_stays_idempotent(self, tmp_path):
        path = tmp_path / "answers.wal"
        with DurableCrowdCache(path) as cache:
            cache.record("node", "m0", 0.5)
        with DurableCrowdCache(path) as reopened:
            # replayed under the journal's string keys
            assert reopened.answers_for("'node'") == [("m0", 0.5)]
            reopened.record("node", "m0", 0.5)  # same identity: dropped
        records, _ = replay_journal(path)
        assert len(records) == 1

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "answers.wal"
        with DurableCrowdCache(path) as cache:
            cache.record("node", "m0", 0.5)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "k": "torn')  # the crash artifact
        records, corrupt = replay_journal(path)
        assert corrupt == 1
        assert len(records) == 1
        reopened = DurableCrowdCache(path)
        assert reopened.corrupt_lines == 1
        assert reopened.total_answers() == 1
        reopened.close()

    def test_compaction_dedups_atomically(self, tmp_path):
        path = tmp_path / "answers.wal"
        cache = DurableCrowdCache(path)
        cache.record("nodeA", "m0", 0.5)
        cache.record("nodeB", "m1", 1.0)
        # a duplicate line as a crashed writer would leave it
        with path.open("a", encoding="utf-8") as handle:
            handle.write(JournalRecord("'nodeA'", "m0", 0.5).as_line() + "\n")
        count = cache.compact()
        assert count == 2
        records, corrupt = replay_journal(path)
        assert corrupt == 0
        assert len(records) == 2
        assert not list(tmp_path.glob("*.tmp"))
        # the journal stays appendable after the swap
        cache.record("nodeC", "m0", 0.25)
        assert len(replay_journal(path)[0]) == 3
        cache.close()

    def test_close_is_idempotent_and_blocks_writes(self, tmp_path):
        cache = DurableCrowdCache(tmp_path / "answers.wal")
        cache.close()
        cache.close()
        with pytest.raises(RuntimeError):
            cache.record("node", "m0", 0.5)


class TestCheckpoint:
    def _session(self, engine, demo, tmp_path):
        manager = engine.session_manager()
        session = manager.create_session(
            demo.query(0.4), session_id="ck", sample_size=1
        )
        path = tmp_path / "ck.json"
        session.enable_checkpoints(path)
        return manager, session, path

    def test_written_on_enable_and_readable(self, engine, demo, tmp_path):
        _, session, path = self._session(engine, demo, tmp_path)
        payload = read_checkpoint(path)
        assert payload["version"] == CHECKPOINT_VERSION
        assert payload["session_id"] == "ck"
        assert payload["sample_size"] == 1
        assert payload["query"] == demo.query(0.4)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "query": "x"}))
        with pytest.raises(ValueError):
            read_checkpoint(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            read_checkpoint(path)

    def test_enable_requires_query_text(self, engine, demo, tmp_path):
        manager = engine.session_manager()
        parsed = engine.parse(demo.query(0.4))
        opaque = manager.create_session(parsed, session_id="opaque")
        with pytest.raises(ValueError):
            opaque.enable_checkpoints(tmp_path / "y.json")


class TestResolveJournal:
    def test_maps_keys_back_through_the_lattice(self, engine, demo):
        query = engine.parse(demo.query(0.4))
        space = engine.build_space(query)
        [root] = space.roots()
        child = space.successors(root)[0]
        records = [
            JournalRecord(repr(root), "m0", 1.0),
            JournalRecord(repr(child), "m0", 0.5),
        ]
        resolved, unresolved = resolve_journal(space, query.threshold, records)
        assert unresolved == 0
        assert resolved[root] == [("m0", 1.0)]
        assert resolved[child] == [("m0", 0.5)]

    def test_orphan_record_counts_as_unresolved(self, engine, demo):
        query = engine.parse(demo.query(0.4))
        space = engine.build_space(query)
        records = [JournalRecord("not-a-node", "m0", 1.0)]
        resolved, unresolved = resolve_journal(space, query.threshold, records)
        assert resolved == {}
        assert unresolved == 1

    def test_child_without_qualifying_parent_stays_unresolved(
        self, engine, demo
    ):
        query = engine.parse(demo.query(0.4))
        space = engine.build_space(query)
        [root] = space.roots()
        child = space.successors(root)[0]
        # the parent's support is below threshold: the traversal that
        # wrote this journal could never have reached the child, so a
        # child record without a qualifying parent is an inconsistency —
        # counted, not resolved
        records = [
            JournalRecord(repr(root), "m0", 0.1),
            JournalRecord(repr(child), "m0", 0.5),
        ]
        resolved, unresolved = resolve_journal(space, query.threshold, records)
        assert resolved == {root: [("m0", 0.1)]}
        assert unresolved == 1


def _pump(manager, members, *, stop_after=None):
    """Single-threaded dispatch/submit loop (no sleeping, no threads)."""
    by_id = {m.member_id: m for m in members}
    for member in members:
        manager.attach_member(member.member_id)
    answered = 0
    while not manager.all_done():
        progress = False
        for member_id in manager.members():
            for question in manager.next_batch(member_id, k=4):
                progress = True
                support = (
                    by_id[member_id]
                    .answer_concrete(
                        ConcreteQuestion(question.assignment, question.fact_set)
                    )
                    .support
                )
                manager.submit(question, support)
                answered += 1
                if stop_after is not None and answered >= stop_after:
                    return answered
        if not progress:
            raise RuntimeError("pump stalled with open sessions")
    return answered


def _kill_and_resume(engine, dataset, tmp_path, *, seed, crowd_size=4,
                     sample_size=3, kill_after=10, threshold=0.4):
    """Run the kill/restore protocol; returns (resumed, expected) MSPs."""
    query = dataset.query(threshold)
    baseline = build_identical_crowd(dataset, crowd_size, seed=seed, prefix="b")
    expected = sorted(
        repr(a)
        for a in engine.execute(
            query, baseline, sample_size=sample_size
        ).all_msps
    )
    wal = tmp_path / f"s{seed}.wal"
    ckpt = tmp_path / f"s{seed}.ckpt.json"
    manager = engine.session_manager(question_timeout=60.0)
    cache = DurableCrowdCache(wal)
    session = manager.create_session(
        query, session_id="victim", sample_size=sample_size, cache=cache
    )
    session.enable_checkpoints(ckpt)
    members = build_identical_crowd(dataset, crowd_size, seed=seed)
    killed_at = _pump(manager, members, stop_after=kill_after)
    assert killed_at == kill_after
    # simulated SIGKILL: manager, session and journal handle abandoned —
    # only the flushed journal and the checkpoint survive
    fresh_manager = engine.session_manager(question_timeout=60.0)
    restored = restore_session(
        fresh_manager, checkpoint_path=ckpt, journal_path=wal
    )
    assert restored.session_id == "victim"
    _pump(fresh_manager, build_identical_crowd(dataset, crowd_size, seed=seed))
    resumed = sorted(repr(a) for a in restored.msps())
    restored.cache.close()
    return resumed, expected


class TestKillResumeIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_demo_identity_across_seeds(self, engine, demo, tmp_path, seed):
        resumed, expected = _kill_and_resume(
            engine, demo, tmp_path, seed=seed
        )
        assert resumed == expected
        assert len(expected) > 0

    def test_culinary_identity(self, tmp_path):
        dataset = culinary.build_dataset()
        engine = OassisEngine(dataset.ontology)
        resumed, expected = _kill_and_resume(
            engine, dataset, tmp_path, seed=0, kill_after=25, threshold=0.3
        )
        assert resumed == expected

    def test_resume_does_not_reask_journaled_answers(
        self, engine, demo, tmp_path
    ):
        dataset = demo
        query = dataset.query(0.4)
        wal = tmp_path / "s.wal"
        ckpt = tmp_path / "s.ckpt.json"
        manager = engine.session_manager(question_timeout=60.0)
        session = manager.create_session(
            query, session_id="victim", sample_size=3,
            cache=DurableCrowdCache(wal),
        )
        session.enable_checkpoints(ckpt)
        members = build_identical_crowd(dataset, 4)
        _pump(manager, members, stop_after=10)
        journaled = len(replay_journal(wal)[0])
        fresh = engine.session_manager(question_timeout=60.0)
        restored = restore_session(fresh, checkpoint_path=ckpt, journal_path=wal)
        _pump(fresh, build_identical_crowd(dataset, 4))
        # every pre-kill answer survived; the resumed run added its own
        final = len(replay_journal(wal)[0])
        assert journaled == 10
        assert final > journaled
        total = sum(
            len(restored.cache.answers_for(a))
            for a in restored.cache.assignments()
        )
        assert total == final  # journal and cache agree exactly
        restored.cache.close()
