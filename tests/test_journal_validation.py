"""Journal replays reject what the live path rejects.

A journal file is a trust boundary: whatever is on disk when a process
starts decides restored sessions.  The live path refuses a support
outside [0, 1] (``QueueManager.submit_support`` raises,
``SessionManager.submit`` returns ``REJECTED``) and a ``sample_size``
that is not a positive int (``QueryRequest.from_wire``).  Replay must
count such a record as a corrupt line, like a torn one, and must never
raise on a line it cannot decode.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import OassisEngine
from repro.crowd.journal import replay_journal, replay_log
from repro.gateway import GatewayApp, GatewayJournal, replay_gateway_journal
from repro.mining.state import Status
from repro.service import restore_session
from repro.service.simulation import DOMAINS

#: decodes fine, but no live path accepts it as a support
BAD_SUPPORTS = ["9.0", "NaN", "1e400", "-0.5", "true", '"0.5"']

#: a line json.loads gives up on (RecursionError, not ValueError)
DEEPLY_NESTED = "[" * 200_000


@pytest.fixture(scope="module")
def demo():
    return DOMAINS["demo"]()


@pytest.fixture(scope="module")
def engine(demo):
    return OassisEngine(demo.ontology)


@pytest.fixture(scope="module")
def root(engine, demo):
    [node] = engine.build_space(engine.parse(demo.query(0.4))).roots()
    return node


def crowd_line(key, member, support_literal):
    return (
        f'{{"k": {json.dumps(key)}, "m": {json.dumps(member)}, '
        f'"q": "concrete", "s": {support_literal}, "v": 1}}'
    )


class TestCrowdJournal:
    @pytest.mark.parametrize("literal", BAD_SUPPORTS)
    def test_out_of_range_support_is_a_corrupt_line(self, tmp_path, literal):
        wal = tmp_path / "s.wal"
        wal.write_text(
            crowd_line("k", "m0", "0.5") + "\n"
            + crowd_line("k", "m1", literal) + "\n",
            encoding="utf-8",
        )
        records, corrupt = replay_journal(wal)
        assert corrupt == 1
        assert [(r.member, r.support) for r in records] == [("m0", 0.5)]

    def test_restore_does_not_decide_on_a_corrupt_support(
        self, engine, demo, root, tmp_path
    ):
        # Θ 0.4, sample 3: root answers 0.0, 0.0, 9.0 averaged to 3.0
        # and made the root SIGNIFICANT; 0.0, 0.0, 1.0 leaves it
        # INSIGNIFICANT.  The 9.0 must count for nothing.
        ckpt = tmp_path / "s.ckpt.json"
        session = engine.session_manager().create_session(
            demo.query(0.4), session_id="s", sample_size=3
        )
        session.enable_checkpoints(ckpt, every=1)
        wal = tmp_path / "s.wal"
        lines = [
            crowd_line(repr(root), member, support)
            for member, support in (("m0", "0.0"), ("m1", "0.0"), ("m2", "9.0"))
        ]
        wal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        restored = restore_session(
            engine.session_manager(), checkpoint_path=ckpt, journal_path=wal
        )
        try:
            assert restored.queue.state.status(root) is Status.UNKNOWN
            assert restored.resumed_answers == 2
        finally:
            restored.cache.close()

    def test_deeply_nested_line_is_a_corrupt_line(self, tmp_path):
        wal = tmp_path / "s.wal"
        wal.write_text(
            crowd_line("k", "m0", "0.5") + "\n" + DEEPLY_NESTED + "\n",
            encoding="utf-8",
        )
        payloads, corrupt = replay_log(wal)
        assert (len(payloads), corrupt) == (1, 1)
        records, corrupt = replay_journal(wal)
        assert (len(records), corrupt) == (1, 1)

    def test_non_utf8_line_is_a_corrupt_line(self, tmp_path):
        wal = tmp_path / "s.wal"
        wal.write_bytes(
            crowd_line("k", "m0", "0.5").encode("utf-8") + b"\n\xff\xfe\n"
        )
        records, corrupt = replay_journal(wal)
        assert (len(records), corrupt) == (1, 1)


def gateway_journal(path, demo, root=None, supports=()):
    """activate demo, pose g1, answer ``root`` once per support given."""
    with GatewayJournal(path) as journal:
        journal.log_activate("demo")
        journal.log_query("g1", demo.query(0.4), 3)
    with path.open("a", encoding="utf-8") as handle:
        for index, literal in enumerate(supports):
            handle.write(
                '{"t": "answer", "v": 1, "qid": "q%d", "session": "g1", '
                '"key": %s, "member": "m%d", "support": %s, '
                '"outcome": "recorded", "ik": null}\n'
                % (index + 1, json.dumps(repr(root)), index, literal)
            )


class TestGatewayJournal:
    @pytest.mark.parametrize("literal", BAD_SUPPORTS)
    def test_out_of_range_support_is_a_corrupt_record(
        self, demo, root, tmp_path, literal
    ):
        path = tmp_path / "gw.journal"
        gateway_journal(path, demo, root, supports=["0.5", literal])
        state = replay_gateway_journal(path)
        assert state.corrupt == 1
        assert [a["support"] for a in state.answers] == [0.5]
        assert set(state.answered) == {"q1"}

    def test_restore_does_not_decide_on_a_corrupt_support(
        self, demo, root, tmp_path
    ):
        path = tmp_path / "gw.journal"
        gateway_journal(path, demo, root, supports=["0.0", "0.0", "9.0"])
        app = GatewayApp(journal_path=path)
        try:
            assert app.restored is not None
            queue = app._require_manager().session("g1").queue
            assert queue.state.status(root) is Status.UNKNOWN
        finally:
            app.close()

    @pytest.mark.parametrize("literal", ["1e400", "0", "2.0", "true", '"3"'])
    def test_bad_sample_size_is_a_corrupt_record(self, demo, tmp_path, literal):
        path = tmp_path / "gw.journal"
        gateway_journal(path, demo)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(
                '{"t": "query", "v": 1, "session": "g2", "query": "x", '
                f'"sample_size": {literal}}}\n'
            )
        state = replay_gateway_journal(path)
        assert state.corrupt == 1
        assert set(state.sessions) == {"g1"}

    def test_gateway_starts_from_an_overflowing_sample_size(
        self, demo, tmp_path
    ):
        path = tmp_path / "gw.journal"
        gateway_journal(path, demo)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(
                '{"t": "query", "v": 1, "session": "g2", "query": "x", '
                '"sample_size": 1e400}\n'
            )
        app = GatewayApp(journal_path=path)
        try:
            assert app.session_ids() == ["g1"]
        finally:
            app.close()

    def test_deeply_nested_line_is_a_corrupt_record(self, demo, tmp_path):
        path = tmp_path / "gw.journal"
        gateway_journal(path, demo)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(DEEPLY_NESTED + "\n")
        state = replay_gateway_journal(path)
        assert state.corrupt == 1
        assert set(state.sessions) == {"g1"}

    def test_unparsable_ordinals_count_as_zero(self, tmp_path):
        path = tmp_path / "gw.journal"
        with GatewayJournal(path) as journal:
            journal.log_activate("demo")
            journal.log_query("g²", "x", 3)  # '²' is a digit, not decimal
            journal.log_mint([("q" + "9" * 5000, "g1", "k", "m0")])
        state = replay_gateway_journal(path)
        assert state.max_qid_ordinal() == 0
        assert state.max_session_ordinal() == 0


# ----------------------------------------------------------------- property

_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
)
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=8,
)
_crowd_records = st.fixed_dictionaries(
    {"v": _values, "k": _values, "m": _values, "s": _values},
    optional={"q": _values},
)
_gateway_records = st.one_of(
    st.fixed_dictionaries({"t": st.just("activate"), "name": _values}),
    st.fixed_dictionaries(
        {"t": st.just("join"), "member": _values, "token": _values}
    ),
    st.fixed_dictionaries(
        {
            "t": st.just("query"),
            "session": _values,
            "query": _values,
            "sample_size": _values,
        }
    ),
    st.fixed_dictionaries({"t": st.just("mint"), "qids": _values}),
    st.fixed_dictionaries(
        {
            "t": st.just("answer"),
            "qid": _values,
            "session": _values,
            "key": _values,
            "member": _values,
            "support": _values,
            "outcome": _values,
        },
        optional={"ik": _values},
    ),
)
_lines = st.one_of(
    st.one_of(_values, _crowd_records, _gateway_records).map(
        lambda value: json.dumps(value).encode("utf-8")
    ),
    st.text(max_size=12).map(lambda text: text.encode("utf-8")),
    st.binary(max_size=12),
)


def _is_support(value):
    return (
        isinstance(value, float)
        and math.isfinite(value)
        and 0.0 <= value <= 1.0
    )


@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.lists(_lines, max_size=12))
def test_replays_never_raise_and_keep_only_live_values(tmp_path, lines):
    path = tmp_path / "arbitrary.journal"
    path.write_bytes(b"\n".join(lines) + b"\n")

    records, corrupt = replay_journal(path)
    assert corrupt >= 0
    assert all(_is_support(record.support) for record in records)

    state = replay_gateway_journal(path)
    for _query, sample_size in state.sessions.values():
        assert type(sample_size) is int and sample_size >= 1
    for answer in state.answers:
        assert answer["support"] is None or _is_support(answer["support"])
    assert state.max_qid_ordinal() >= 0
    assert state.max_session_ordinal() >= 0
