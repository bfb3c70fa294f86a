"""The gateway wire schema: versioned DTOs, typed decode, fact triples."""

import http.client
import http.server
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.schema import (
    SCHEMA_VERSION,
    ActivateRequest,
    ActivateResponse,
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
from repro.crowd import CrowdMember, PersonalDatabase
from repro.gateway import GatewayApp, GatewayConfig, serve_in_thread
from repro.gateway.client import _member_loop
from repro.ontology.facts import Fact, FactSet
from repro.vocabulary import Vocabulary


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

    def test_empty_term_name_is_a_schema_error(self):
        payload = QuestionDTO("q1", "s", "t", (("a", "r", "b"),), 5.0, 1).to_wire()
        for position in range(3):
            triple = ["a", "r", "b"]
            triple[position] = ""
            payload["facts"] = [triple]
            with pytest.raises(SchemaError):
                QuestionDTO.from_wire(payload)


# ------------------------------------------------------------------ fuzzing

_QUESTION = QuestionDTO("q1", "s1", "How often?", (("a", "doAt", "b"),), 1.5, 1)

#: one valid wire payload per decoder, the seed of its near-valid inputs
_SAMPLES = {
    ActivateRequest: ActivateRequest("travel").to_wire(),
    ActivateResponse: ActivateResponse("travel", True).to_wire(),
    AnswerRequest: AnswerRequest("q1", 0.5, "k", 2.0).to_wire(),
    AnswerResponse: AnswerResponse("q1", "recorded").to_wire(),
    DatasetList: DatasetList(("demo", "travel"), "demo").to_wire(),
    ErrorResponse: ErrorResponse("bad_request", "x", 1.0).to_wire(),
    JoinRequest: JoinRequest("m0").to_wire(),
    JoinResponse: JoinResponse("m0", "tok").to_wire(),
    QueryAccepted: QueryAccepted("s1", "SELECT").to_wire(),
    QueryRequest: QueryRequest("SELECT", 0.4, 3, "s1").to_wire(),
    QuestionBatch: QuestionBatch((_QUESTION,), 0.5).to_wire(),
    QuestionDTO: _QUESTION.to_wire(),
    ResultResponse: ResultResponse("s1", "done", True, 3, ("m",), ("m",)).to_wire(),
}

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_triples = st.lists(
    st.lists(st.text(max_size=2), min_size=3, max_size=3), min_size=1, max_size=3
)


@st.composite
def _mutated(draw, payload):
    """``payload`` with up to three fields dropped or replaced by arbitrary
    JSON or name triples; the objects of a list are mutated the same way."""
    out = dict(payload)
    keys = draw(
        st.lists(st.sampled_from(sorted(out) + ["extra"]), max_size=3, unique=True)
    )
    for key in keys:
        action = draw(st.sampled_from(["drop", "json", "triples"]))
        if action == "drop":
            out.pop(key, None)
        elif action == "json":
            out[key] = draw(_json)
        else:
            out[key] = draw(_triples)
    for key, value in list(out.items()):
        if isinstance(value, list) and value and all(
            isinstance(item, dict) for item in value
        ):
            out[key] = [draw(_mutated(item)) for item in value]
    return out


@pytest.mark.parametrize("decoder", list(_SAMPLES), ids=lambda c: c.__name__)
@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_decoders_return_or_raise_schema_error(decoder, data):
    """Any JSON value, or a valid payload with fields dropped or replaced,
    decodes or raises SchemaError; a decoded question's facts rebuild."""
    payload = data.draw(st.one_of(_json, _mutated(_SAMPLES[decoder])))
    try:
        decoded = decoder.from_wire(payload)
    except SchemaError:
        return
    if isinstance(decoded, QuestionBatch):
        questions = decoded.questions
    elif isinstance(decoded, QuestionDTO):
        questions = (decoded,)
    else:
        questions = ()
    for question in questions:
        facts_from_wire(question.facts)


def test_campaign_member_records_an_undecodable_batch():
    """A member thread that cannot decode its batch records the error
    and stops, rather than dying with nothing in ``errors``."""
    question = _QUESTION.to_wire()
    question["facts"] = [["", "doAt", "b"]]
    body = json.dumps({"v": 1, "questions": [question]}).encode()

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    errors = []
    try:
        member = CrowdMember("m0", PersonalDatabase(), Vocabulary())
        _member_loop(
            "127.0.0.1",
            server.server_address[1],
            "tok",
            member,
            threading.Event(),
            0.0,
            errors,
        )
    finally:
        server.shutdown()
        server.server_close()
    assert len(errors) == 1
    assert "undecodable batch" in errors[0]


# ------------------------------------------------------ the live boundary

#: every error the gateway types; a 500 ``internal_error`` is a decode the
#: boundary let through
_TYPED_ERRORS = {
    "bad_request",
    "schema_error",
    "unauthorized",
    "forbidden",
    "not_found",
    "conflict",
    "backpressure",
}

#: the fuzzing member's id, longer than any text ``_json`` draws, so no
#: mutated payload names it by chance
_FUZZ_MEMBER = "fuzz-member"


class _LiveGateway:
    """A served demo gateway, and the qids the fuzzing member holds."""

    def __init__(self, handle):
        self.handle = handle
        self.call("POST", "/datasets/activate", ActivateRequest("demo").to_wire())
        self._sessions = 0
        self.new_session()
        _, joined = self.call("POST", "/join", JoinRequest(_FUZZ_MEMBER).to_wire())
        self.token = joined["token"]
        self.held = []
        self._keys = 0

    def call(self, method, path, payload=None, token=None):
        connection = http.client.HTTPConnection(
            self.handle.host, self.handle.port, timeout=10
        )
        headers = {"Content-Type": "application/json"}
        if token is not None:
            headers["Authorization"] = f"Bearer {token}"
        body = None if payload is None else json.dumps(payload).encode()
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            status, raw = response.status, response.read()
        finally:
            connection.close()
        decoded = json.loads(raw)
        assert status < 500, decoded
        if status >= 400:
            assert decoded.get("error") in _TYPED_ERRORS, decoded
        return status, decoded

    def new_session(self):
        self._sessions += 1
        request = QueryRequest(None, 0.5, 3, f"fuzz-s{self._sessions}")
        status, accepted = self.call("POST", "/query", request.to_wire())
        assert status == 200, accepted

    def held_qid(self):
        """A qid the fuzzing member holds now (posing a session if need be)."""
        for _ in range(3):
            if self.held:
                return self.held[0]
            _, batch = self.call("GET", "/next?wait=0", token=self.token)
            self.held.extend(question["qid"] for question in batch["questions"])
            if not self.held:
                self.new_session()
        raise AssertionError("the demo gateway dispatched no question")

    def fresh_key(self):
        self._keys += 1
        return f"fuzz-key-{self._keys}"

    def answered(self, qid, status, response):
        """Drop ``qid`` from the held ones once an answer consumed it."""
        if status == 200 and response.get("qid") == qid:
            self.held.remove(qid)


@pytest.fixture(scope="module")
def live_gateway():
    app = GatewayApp(config=GatewayConfig(question_timeout=60.0))
    handle = serve_in_thread(app)
    try:
        yield _LiveGateway(handle)
    finally:
        handle.stop()


def _post_answer(live, data):
    qid = live.held_qid()
    payload = data.draw(
        _mutated(AnswerRequest(qid, 0.5, live.fresh_key(), 2.0).to_wire())
    )
    payload["qid"] = qid
    status, response = live.call("POST", "/answer", payload, token=live.token)
    live.answered(qid, status, response)


def _post(path, sample):
    def post(live, data):
        live.call("POST", path, data.draw(st.one_of(_json, _mutated(sample))))

    return post


def _tools_call(name, arguments):
    return {
        "jsonrpc": "2.0",
        "id": 1,
        "method": "tools/call",
        "params": {"name": name, "arguments": arguments},
    }


def _call_tool(name, sample):
    def call(live, data):
        arguments = data.draw(st.one_of(_json, _mutated(sample)))
        live.call("POST", "/mcp", _tools_call(name, arguments))

    return call


def _call_submit_answer(live, data):
    qid = live.held_qid()
    sample = {"member_id": _FUZZ_MEMBER, "qid": qid, "support": 0.5}
    arguments = data.draw(_mutated(sample))
    arguments.update(member_id=_FUZZ_MEMBER, qid=qid)
    status, response = live.call(
        "POST", "/mcp", _tools_call("submit_answer", arguments)
    )
    result = response["result"]
    if not result["isError"]:
        live.answered(qid, status, json.loads(result["content"][0]["text"]))


#: one request maker per trust boundary: each HTTP body and each MCP tool
_BOUNDARIES = {
    "POST /datasets/activate": _post(
        "/datasets/activate", ActivateRequest("demo").to_wire()
    ),
    "POST /join": _post("/join", JoinRequest("m0").to_wire()),
    "POST /query": _post("/query", QueryRequest(None, 0.5, 3).to_wire()),
    "POST /answer": _post_answer,
    "mcp list_datasets": _call_tool("list_datasets", {}),
    "mcp activate_dataset": _call_tool("activate_dataset", {"name": "demo"}),
    "mcp pose_query": _call_tool(
        "pose_query", {"threshold": 0.5, "sample_size": 3}
    ),
    "mcp next_questions": _call_tool(
        "next_questions", {"member_id": "mcp-member", "k": 1}
    ),
    "mcp submit_answer": _call_submit_answer,
    "mcp get_result": _call_tool("get_result", {"session_id": "fuzz-s1"}),
}


@pytest.mark.parametrize("boundary", list(_BOUNDARIES))
@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_served_boundaries_answer_or_raise_a_typed_error(
    live_gateway, boundary, data
):
    """A near-valid body or tool call posted to a live gateway comes back
    2xx or a typed 4xx error, never a 500; an answer carries a qid the
    member holds, so the gateway reads its support."""
    _BOUNDARIES[boundary](live_gateway, data)
