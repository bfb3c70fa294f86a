"""Durable gateway sessions: journal fold, compaction, crash restore.

The pure layer (:class:`~repro.gateway.journal.GatewayLogState` folding,
compaction, torn-tail tolerance) is tested straight against journal
files; the crash-recovery layer drives a real loopback gateway, stops
its server cold mid-campaign, rebuilds a fresh
:class:`~repro.gateway.app.GatewayApp` from the same journal and holds
the resumed campaign to the serial-MSP-identity oracle.  The fault
matrix (``DISCONNECT`` request drops plus deliberate duplicate
deliveries under one idempotency key, spanning a restart) runs the
chaos harness's single-thread gateway driver, so the test gates what
the ``gateway`` and ``client`` chaos scenarios gate.
"""

import threading
import time

import pytest

from repro.crowd.questions import ConcreteQuestion
from repro.engine.engine import OassisEngine
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.faults.chaos import _gateway_campaign
from repro.gateway import (
    GatewayApp,
    GatewayClient,
    GatewayConfig,
    GatewayJournal,
    replay_gateway_journal,
    serve_in_thread,
)
from repro.gateway.schema import QueryRequest, facts_from_wire
from repro.service.simulation import DOMAINS, build_identical_crowd


def seed_journal(path, answers=40):
    """A synthetic but well-formed journal: 4 members, 1 session, answers."""
    dataset = DOMAINS["demo"]()
    entries = [
        (f"q{i + 1}", "g1", f"key-{i % 7}", f"m{i % 4}") for i in range(answers)
    ]
    with GatewayJournal(path) as journal:
        journal.log_activate("demo")
        for i in range(4):
            journal.log_join(f"m{i}", f"token-{i}")
        journal.log_query("g1", dataset.query(0.4), 3)
        journal.log_mint(entries)
        for qid, sid, key, member in entries:
            journal.log_answer(
                qid=qid,
                session_id=sid,
                key=key,
                member_id=member,
                support=0.5,
                outcome="recorded",
                idempotency_key=f"{member}:{qid}",
            )
    return entries


class TestLogStateFold:
    def test_fold_roundtrip_through_a_real_file(self, tmp_path):
        path = tmp_path / "gw.journal"
        entries = seed_journal(path, answers=10)
        state = replay_gateway_journal(path)
        assert state.corrupt == 0
        assert state.dataset == "demo"
        assert state.members == {f"m{i}": f"token-{i}" for i in range(4)}
        assert set(state.sessions) == {"g1"}
        assert state.sessions["g1"][1] == 3
        assert set(state.mints) == {qid for qid, *_ in entries}
        assert state.answered == {qid: "recorded" for qid, *_ in entries}

    def test_activate_resets_prior_state(self, tmp_path):
        path = tmp_path / "gw.journal"
        with GatewayJournal(path) as journal:
            journal.log_activate("demo")
            journal.log_join("m0", "token-0")
            journal.log_query("g1", "whatever", 3)
            journal.log_activate("travel")
        state = replay_gateway_journal(path)
        assert state.dataset == "travel"
        assert state.members == {}
        assert state.sessions == {}

    def test_answers_dedupe_by_session_key_member(self, tmp_path):
        path = tmp_path / "gw.journal"
        with GatewayJournal(path) as journal:
            journal.log_activate("demo")
            for qid in ("q1", "q2"):  # same node retried under a fresh qid
                journal.log_answer(
                    qid=qid, session_id="g1", key="k", member_id="m0",
                    support=0.5, outcome="recorded", idempotency_key="m0:q1",
                )
        state = replay_gateway_journal(path)
        assert len(state.answers) == 1
        assert state.answers[0]["qid"] == "q1"
        # both qids stay answerable, the idempotency key keeps its
        # first outcome, but the session cache is charged exactly once
        assert set(state.answered) == {"q1", "q2"}
        assert state.idempotency["m0:q1"] == ("q1", "recorded")

    def test_ordinal_high_water_marks(self, tmp_path):
        path = tmp_path / "gw.journal"
        with GatewayJournal(path) as journal:
            journal.log_activate("demo")
            journal.log_query("g7", "q", 3)
            journal.log_mint([("q41", "g7", "k", "m0")])
        state = replay_gateway_journal(path)
        assert state.max_qid_ordinal() == 41
        assert state.max_session_ordinal() == 7

    def test_torn_tail_and_unknown_records_are_skipped(self, tmp_path):
        path = tmp_path / "gw.journal"
        seed_journal(path, answers=5)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"t": "from-the-future", "v": 99}\n')
            handle.write('{"t": "answer", "qid"')  # the torn tail
        state = replay_gateway_journal(path)
        assert state.corrupt == 2
        assert state.dataset == "demo"
        assert len(state.answered) == 5


class TestCompaction:
    def test_compact_preserves_the_folded_state(self, tmp_path):
        path = tmp_path / "gw.journal"
        seed_journal(path, answers=40)
        before = replay_gateway_journal(path)
        with GatewayJournal(path) as journal:
            written = journal.compact()
        after = replay_gateway_journal(path)
        assert written < 40 + 6  # the duplicate identities collapsed
        for field in ("dataset", "members", "sessions", "mints", "answers"):
            assert getattr(after, field) == getattr(before, field), field
        # duplicate-identity retries lose their per-qid outcome marker to
        # the rewrite, but every one of those qids stays resolvable via
        # the mint ledger (stale, not 404) and the canonical first
        # application per identity keeps its outcome and its key
        assert after.answered.items() <= before.answered.items()
        assert after.idempotency.items() <= before.idempotency.items()
        assert set(before.answered) <= set(after.answered) | set(after.mints)
        canonical = {answer["qid"] for answer in before.answers}
        assert canonical <= set(after.answered)

    def test_appends_keep_landing_after_a_compact(self, tmp_path):
        path = tmp_path / "gw.journal"
        seed_journal(path, answers=4)
        with GatewayJournal(path) as journal:
            journal.compact()
            journal.log_join("late", "token-late")
        state = replay_gateway_journal(path)
        assert state.members["late"] == "token-late"

    def test_compaction_racing_a_live_restore(self, tmp_path):
        # the rewrite is an atomic os.replace, so a reader — including a
        # restoring GatewayApp — must always see a complete journal,
        # never a half-written one
        path = tmp_path / "gw.journal"
        seed_journal(path, answers=40)
        baseline = replay_gateway_journal(path)
        stop = threading.Event()

        def compactor():
            while not stop.is_set():
                with GatewayJournal(path) as journal:
                    journal.compact()

        thread = threading.Thread(target=compactor, daemon=True)
        thread.start()
        try:
            for _ in range(20):
                # depending on when the swap lands this replay sees the
                # raw journal or a compacted snapshot — both must fold
                # to the same canonical state, never to a torn hybrid
                state = replay_gateway_journal(path)
                assert state.corrupt == 0
                assert state.members == baseline.members
                assert state.mints == baseline.mints
                assert state.answers == baseline.answers
                assert state.idempotency.items() <= baseline.idempotency.items()
                assert set(baseline.answered) <= (
                    set(state.answered) | set(state.mints)
                )
            for _ in range(3):
                app = GatewayApp(journal_path=path)
                try:
                    assert app.restored is not None
                    assert app.restored["sessions"] == 1
                    assert app.restored["members"] == 4
                    assert app.restored["failures"] == 0
                finally:
                    app.close()
        finally:
            stop.set()
            thread.join(timeout=10.0)


def _pump(client, member, wait):
    """Drain one poll: answer everything offered, return the applications."""
    applied = []
    batch = client.next_questions(wait=wait)
    for question in batch.questions:
        answer = member.answer_concrete(
            ConcreteQuestion(question.qid, facts_from_wire(question.facts))
        )
        key = f"{member.member_id}:{question.qid}"
        response = client.submit_answer(
            question.qid, answer.support, idempotency_key=key
        )
        applied.append((question.qid, key, answer.support, response.outcome))
    return applied


class TestCrashRestore:
    def test_fresh_journal_restores_nothing(self, tmp_path):
        app = GatewayApp(journal_path=tmp_path / "gw.journal")
        try:
            assert app.restored is None
            assert app.journal is not None
        finally:
            app.close()

    def test_restart_keeps_the_crowd_cost(self, tmp_path):
        # the result a client reads counts every acknowledged answer, before
        # and after a restart: a restored session counts the answers it was
        # rebuilt from
        journal = tmp_path / "gw.journal"
        dataset = DOMAINS["demo"]()
        crowd = build_identical_crowd(dataset, 3, seed=0)
        app = GatewayApp(journal_path=journal)
        try:
            app.activate_dataset("demo")
            app.pose_query(QueryRequest(sample_size=3, session_id="s0"))
            recorded = 0
            for member in crowd:
                app.join(member.member_id)
                for question in app.next_questions(member.member_id).questions:
                    answer = member.answer_concrete(
                        ConcreteQuestion(question.qid, facts_from_wire(question.facts))
                    )
                    response = app.submit_answer(
                        member.member_id, question.qid, answer.support
                    )
                    recorded += response.outcome == "recorded"
            before = app.result("s0").questions_asked
        finally:
            app.close()
        assert before == recorded > 0
        restarted = GatewayApp(journal_path=journal)
        try:
            assert restarted.restored["answers"] == recorded
            assert restarted.result("s0").questions_asked == before
        finally:
            restarted.close()

    def test_restart_resumes_sessions_tokens_and_idempotency(self, tmp_path):
        journal = tmp_path / "gw.journal"
        dataset = DOMAINS["demo"]()
        crowd = build_identical_crowd(dataset, 3, seed=0)
        config = GatewayConfig(question_timeout=60.0)

        app = GatewayApp(journal_path=journal, config=config)
        handle = serve_in_thread(app)
        admin = GatewayClient(handle.host, handle.port)
        admin.activate("demo")
        accepted = admin.pose_query(
            query=dataset.query(0.4), sample_size=3, session_id="s0"
        )
        tokens = {m.member_id: admin.join(m.member_id).token for m in crowd}
        clients = {
            m.member_id: GatewayClient(
                handle.host, handle.port, token=tokens[m.member_id]
            )
            for m in crowd
        }

        # answer a handful of questions, then leave one minted question
        # un-answered so a pre-crash qid survives into the next process
        applied = []
        deadline = time.monotonic() + 30.0
        while len(applied) < 3 and time.monotonic() < deadline:
            for member in crowd:
                applied += _pump(clients[member.member_id], member, wait=0.2)
        assert applied, "campaign never produced an answerable question"
        orphan = None
        while orphan is None and time.monotonic() < deadline:
            for member in crowd:
                batch = clients[member.member_id].next_questions(wait=0.2)
                if batch.questions:
                    orphan = (member.member_id, batch.questions[0].qid)
                    break

        # crash: stop the server and drop every in-memory structure;
        # close() only releases the journal handle — appends are on disk
        handle.stop()
        app.close()
        for client in clients.values():
            client.close()
        admin.close()

        app2 = GatewayApp(journal_path=journal, config=config)
        assert app2.restored is not None
        assert app2.restored["sessions"] == 1
        assert app2.restored["members"] == 3
        assert app2.restored["failures"] == 0
        handle2 = serve_in_thread(app2)
        clients = {
            m.member_id: GatewayClient(
                handle2.host, handle2.port, token=tokens[m.member_id]
            )
            for m in crowd
        }
        admin = GatewayClient(handle2.host, handle2.port)
        try:
            # original bearer tokens authenticate against the successor
            # (a dead token would 401 here); everything minted by the
            # probe is answered, not left to wedge its node
            for member in crowd:
                _pump(clients[member.member_id], member, wait=0.0)

            # a pre-crash qid is stale, never 404 (its node gets a fresh
            # dispatch from the session layer)
            if orphan is not None:
                member_id, qid = orphan
                stale = clients[member_id].submit_answer(qid, 0.5)
                assert stale.outcome == "stale"

            # idempotency keys dedupe across the restart: the retry
            # reports the pre-crash outcome without a second application
            qid, key, support, outcome = applied[0]
            for member in crowd:
                if key.startswith(member.member_id + ":"):
                    retry = clients[member.member_id].submit_answer(
                        qid, support, idempotency_key=key
                    )
                    assert retry.outcome == outcome

            # the resumed campaign must land on the serial MSP set
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                for member in crowd:
                    _pump(clients[member.member_id], member, wait=0.2)
                result = admin.result("s0")
                if result.done:
                    break
            assert result.done, "resumed campaign never settled"
            engine = OassisEngine(dataset.ontology)
            serial = engine.execute(
                accepted.query,
                build_identical_crowd(dataset, 3, seed=0, prefix="serial-m"),
                sample_size=3,
            )
            assert list(result.msps) == sorted(
                repr(a) for a in serial.all_msps
            )
        finally:
            for client in clients.values():
                client.close()
            admin.close()
            handle2.stop()
            app2.close()


class TestFaultsAcrossRestart:
    def test_disconnects_and_duplicate_deliveries_span_a_restart(self):
        # DISCONNECT faults drop requests unprocessed (each is sent again
        # on the member's next turn), every 2nd applied answer is
        # delivered again under its idempotency key, and the gateway is
        # crashed and journal-restored mid-campaign: still exactly-once,
        # still the serial MSP set
        plan = FaultPlan(
            [
                FaultSpec(
                    "gateway.request", FaultKind.DISCONNECT, rate=0.03, limit=5
                )
            ],
            seed=1,
        )
        report = _gateway_campaign(
            seed=1,
            domain="demo",
            sessions=2,
            crowd_size=4,
            sample_size=3,
            max_runtime=90.0,
            crash_after=3,
            faults=plan,
            duplicate_every=2,
        )
        assert report["ok"], report["violations"]
        assert report["restored"]["sessions"] >= 1
        assert report["mttr_seconds"] is not None
        assert report["faults_injected"]["disconnect"] >= 1
        assert report["duplicates_sent"] >= 1
        assert report["reasks"] == 0
        assert report["mismatches"] == []
