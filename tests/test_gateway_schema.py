"""The gateway wire schema: versioned DTOs, typed decode, fact triples."""

import pytest

from repro.gateway.schema import (
    SCHEMA_VERSION,
    ActivateRequest,
    AnswerRequest,
    AnswerResponse,
    DatasetList,
    ErrorResponse,
    JoinRequest,
    JoinResponse,
    QueryAccepted,
    QueryRequest,
    QuestionBatch,
    QuestionDTO,
    ResultResponse,
    SchemaError,
    check_version,
    facts_from_wire,
    facts_to_wire,
)
from repro.ontology.facts import Fact, FactSet


class TestVersioning:
    def test_every_dto_stamps_the_schema_version(self):
        assert JoinRequest("m0").to_wire()["v"] == SCHEMA_VERSION
        assert QueryRequest().to_wire()["v"] == SCHEMA_VERSION
        assert ErrorResponse("bad_request", "x").to_wire()["v"] == SCHEMA_VERSION

    def test_missing_version_is_rejected(self):
        with pytest.raises(SchemaError):
            check_version({"member_id": "m0"})

    def test_non_mapping_payload_is_rejected(self):
        with pytest.raises(SchemaError):
            check_version(["not", "a", "mapping"])

    def test_newer_versions_still_decode(self):
        # forward compatibility: a v2 peer's payload decodes as long as
        # the v1 fields are intact
        payload = JoinResponse("m0", "tok").to_wire()
        payload["v"] = SCHEMA_VERSION + 1
        payload["future_field"] = {"ignored": True}
        decoded = JoinResponse.from_wire(payload)
        assert decoded.member_id == "m0"
        assert decoded.token == "tok"

    def test_older_than_v1_is_rejected(self):
        payload = JoinRequest("m0").to_wire()
        payload["v"] = 0
        with pytest.raises(SchemaError):
            JoinRequest.from_wire(payload)


class TestTypedDecode:
    def test_round_trips(self):
        batch = QuestionBatch(
            questions=(
                QuestionDTO(
                    qid="q1",
                    session_id="s1",
                    text="Do you enjoy this?",
                    facts=(("a", "likes", "b"),),
                    deadline_s=4.5,
                    attempt=1,
                ),
            ),
            retry_after_s=0.0,
        )
        decoded = QuestionBatch.from_wire(batch.to_wire())
        assert decoded == batch
        result = ResultResponse(
            session_id="s1",
            state="completed",
            done=True,
            questions_asked=7,
            msps=("A1", "A2"),
            valid_msps=("A1",),
        )
        assert ResultResponse.from_wire(result.to_wire()) == result

    def test_wrong_type_names_the_field(self):
        payload = AnswerRequest("q1", 0.5).to_wire()
        payload["qid"] = 7
        with pytest.raises(SchemaError, match="qid"):
            AnswerRequest.from_wire(payload)

    def test_bool_is_not_an_int(self):
        payload = QueryRequest().to_wire()
        payload["sample_size"] = True
        with pytest.raises(SchemaError, match="sample_size"):
            QueryRequest.from_wire(payload)

    def test_query_request_validates_ranges(self):
        with pytest.raises(SchemaError):
            QueryRequest.from_wire(
                {"v": 1, "threshold": 1.5}
            )
        with pytest.raises(SchemaError):
            QueryRequest.from_wire({"v": 1, "sample_size": 0})

    def test_answer_support_may_be_null(self):
        payload = AnswerRequest("q1", None).to_wire()
        assert AnswerRequest.from_wire(payload).support is None
        assert AnswerResponse.from_wire(
            AnswerResponse("q1", "passed").to_wire()
        ).outcome == "passed"

    def test_dataset_list_and_activate(self):
        listing = DatasetList(datasets=("demo", "travel"), active=None)
        assert DatasetList.from_wire(listing.to_wire()) == listing
        assert ActivateRequest.from_wire(
            ActivateRequest("demo").to_wire()
        ).name == "demo"

    def test_query_accepted_round_trip(self):
        accepted = QueryAccepted(session_id="g1", query="SELECT ...")
        assert QueryAccepted.from_wire(accepted.to_wire()) == accepted


class TestFactTriples:
    def test_round_trip_preserves_the_fact_set(self):
        facts = FactSet(
            [Fact("child", "doAt", "park"), Fact("adult", "eatAt", "cafe")]
        )
        triples = facts_to_wire(facts)
        assert triples == tuple(sorted(triples))  # canonical order
        rebuilt = facts_from_wire(triples)
        assert rebuilt == facts

    def test_triples_are_plain_strings(self):
        facts = FactSet([Fact("a", "r", "b")])
        ((s, r, o),) = facts_to_wire(facts)
        assert (s, r, o) == ("a", "r", "b")
        assert all(isinstance(part, str) for part in (s, r, o))
