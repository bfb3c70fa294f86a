"""The repro.api facade: one Client with typed DTOs."""

import pytest

import repro.api as api
from repro.api import Client
from repro.engine.engine import OassisEngine
from repro.gateway import GatewayConfig, NotFoundError
from repro.gateway.schema import (
    AnswerResponse,
    DatasetList,
    JoinResponse,
    QueryAccepted,
    QuestionBatch,
    ResultResponse,
)
from repro.service.simulation import run_simulation


@pytest.fixture()
def client():
    return Client(domain="demo", config=GatewayConfig(question_timeout=60.0))


class TestSessionStyle:
    def test_methods_return_the_wire_dtos(self, client):
        listing = client.datasets()
        assert isinstance(listing, DatasetList)
        assert listing.active == "demo"
        joined = client.join(member_id="m0")
        assert isinstance(joined, JoinResponse)
        accepted = client.pose_query(threshold=0.4)
        assert isinstance(accepted, QueryAccepted)
        batch = client.next_questions(member_id="m0", k=1)
        assert isinstance(batch, QuestionBatch)
        assert batch.questions
        answered = client.submit_answer(
            member_id="m0", qid=batch.questions[0].qid, support=1.0
        )
        assert isinstance(answered, AnswerResponse)
        assert answered.outcome in ("recorded", "passed")
        result = client.result(session_id=accepted.session_id)
        assert isinstance(result, ResultResponse)
        assert result.session_id == accepted.session_id

    def test_question_text_is_natural_language(self, client):
        client.join(member_id="m0")
        client.pose_query(threshold=0.4)
        (question,) = client.next_questions(member_id="m0", k=1).questions
        assert question.text.startswith("How often do you")
        assert "Attraction" in question.text

    def test_client_is_the_only_export(self):
        assert api.__all__ == ["Client"]

    def test_methods_are_keyword_only(self, client):
        with pytest.raises(TypeError):
            client.activate("demo")  # noqa: the old positional shape
        with pytest.raises(TypeError):
            client.join("m0")
        with pytest.raises(TypeError):
            client.result("s1")

    def test_errors_surface_as_gateway_errors(self, client):
        with pytest.raises(NotFoundError):
            client.activate(name="atlantis")
        with pytest.raises(NotFoundError):
            client.result(session_id="never-posed")

    def test_late_answers_cannot_revive_a_decided_root(self, client):
        """Six members hold the root; the first three answers decide it."""
        accepted = client.pose_query(threshold=0.4, sample_size=3)
        members = [f"m{i}" for i in range(6)]
        held = {}
        for member in members:
            client.join(member_id=member)
            (question,) = client.next_questions(member_id=member, k=1).questions
            held[member] = question.qid
        for member, support in zip(members, (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)):
            client.submit_answer(member_id=member, qid=held[member], support=support)
        result = client.result(session_id=accepted.session_id)
        assert result.done
        assert result.msps == ()

    def test_retired_entry_points_raise(self, client):
        # each runtime has one entry point: OassisEngine.execute,
        # run_simulation / run_sharded_simulation and ShardCoordinator
        for name in ("execute", "simulate", "shard_coordinator", "engine"):
            with pytest.raises(AttributeError):
                getattr(client, name)
        assert not hasattr(OassisEngine, "shard_coordinator")
        with pytest.raises(TypeError):
            run_simulation(shards=2)
        with pytest.raises(TypeError):
            GatewayConfig(sample_size=3)


class TestBatchStyle:
    def test_serve_lifts_the_same_state_onto_http(self, client):
        from repro.gateway import GatewayClient

        accepted = client.pose_query(threshold=0.4, session_id="s-served")
        with client.serve() as handle:
            remote = GatewayClient(handle.host, handle.port)
            assert remote.health()["dataset"] == "demo"
            result = remote.result(accepted.session_id)
            assert result.session_id == "s-served"
            remote.close()

    def test_mcp_shares_the_application_state(self, client):
        mcp = client.mcp()
        assert "pose_query" in mcp.available_tools()
