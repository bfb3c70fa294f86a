"""The network-facing crowd gateway: endpoint contracts, MCP, e2e identity.

Contract tests drive the real asyncio HTTP server over loopback sockets
through :class:`~repro.gateway.client.GatewayClient` (and raw
``http.client`` where the client is too well-behaved to produce the
malformed traffic under test).  The e2e tests replay whole
simulated-member campaigns and hold the gateway to the same oracle as
every other serving layer: the MSP sets must be identical to a serial
``engine.execute``.

The fault-injection campaign uses ``DISCONNECT`` rate 0.01 with seed 0:
:func:`repro.faults.plan._roll` is a pure function of
``(seed, site, member, kind, event)``, and for this seed no member's
roll stream contains two consecutive firing events within the first
6000 requests — so the client's single idempotent retry always
suffices and the test is deterministic, not flaky.
"""

import http.client
import json
import threading
import time

import pytest

from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.gateway import (
    GatewayApp,
    GatewayClient,
    GatewayClientError,
    GatewayConfig,
    McpGateway,
    RetryPolicy,
    replay_campaign,
    serve_in_thread,
)
from repro.observability import tracing, unregistered_names


@pytest.fixture()
def served():
    """An open gateway on a fresh loopback port; stops on teardown."""
    app = GatewayApp(config=GatewayConfig(question_timeout=60.0))
    handle = serve_in_thread(app)
    try:
        yield app, handle
    finally:
        handle.stop()


@pytest.fixture()
def admin(served):
    _, handle = served
    client = GatewayClient(handle.host, handle.port)
    try:
        yield client
    finally:
        client.close()


def _raw_request(handle, method, path, body=None, headers=None):
    connection = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class TestEndpointContracts:
    def test_health_and_datasets_are_open(self, admin):
        assert admin.health()["status"] == "ok"
        listing = admin.datasets()
        assert "demo" in listing.datasets
        assert listing.active is None

    def test_auth_rejection_on_admin_endpoints(self):
        app = GatewayApp(admin_token="sekrit")
        with serve_in_thread(app) as handle:
            anonymous = GatewayClient(handle.host, handle.port)
            with pytest.raises(GatewayClientError) as failure:
                anonymous.activate("demo")
            assert failure.value.status == 401
            with pytest.raises(GatewayClientError) as failure:
                anonymous.pose_query()
            assert failure.value.status == 401
            anonymous.close()
            # the right token goes through
            operator = GatewayClient(handle.host, handle.port, token="sekrit")
            assert operator.activate("demo").activated
            operator.close()

    def test_member_token_is_required_for_next_and_answer(self, served, admin):
        _, handle = served
        admin.activate("demo")
        status, _ = _raw_request(handle, "GET", "/next")
        assert status == 401
        status, _ = _raw_request(
            handle,
            "GET",
            "/next",
            headers={"Authorization": "Bearer forged-token"},
        )
        assert status == 401
        status, _ = _raw_request(
            handle,
            "POST",
            "/answer",
            body=b'{"v": 1, "qid": "q1", "support": 1.0}',
            headers={"Content-Type": "application/json"},
        )
        assert status == 401

    def test_malformed_json_is_a_client_error_not_a_500(self, served):
        _, handle = served
        status, body = _raw_request(
            handle,
            "POST",
            "/join",
            body=b"{definitely not json",
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        payload = json.loads(body)
        assert payload["error"] == "bad_request"
        # and the server is still alive afterwards
        status, _ = _raw_request(handle, "GET", "/health")
        assert status == 200

    def test_unknown_path_is_404(self, served):
        _, handle = served
        status, _ = _raw_request(handle, "GET", "/definitely/not/here")
        assert status == 404

    def test_wrong_method_is_405(self, served):
        _, handle = served
        status, _ = _raw_request(handle, "DELETE", "/health")
        assert status == 405

    def test_unknown_dataset_is_404(self, admin):
        with pytest.raises(GatewayClientError) as failure:
            admin.activate("atlantis")
        assert failure.value.status == 404

    def test_query_without_active_dataset_is_a_conflict(self, admin):
        with pytest.raises(GatewayClientError) as failure:
            admin.pose_query()
        assert failure.value.status == 409

    def test_malformed_query_is_a_bad_request(self, admin):
        admin.activate("demo")
        text = admin.pose_query(threshold=0.4, session_id="s-ok").query
        for malformed in (
            "garbage ((",
            text.replace("doAt", "flysTo"),
            text.replace("WITH SUPPORT = 0.4", "WITH SUPPORT = 0"),
        ):
            with pytest.raises(GatewayClientError) as failure:
                admin.pose_query(query=malformed)
            assert (failure.value.status, failure.value.error) == (400, "bad_request")
        with pytest.raises(GatewayClientError) as failure:
            admin.pose_query(query=text, session_id="s-ok")
        assert (failure.value.status, failure.value.error) == (409, "conflict")

    def test_result_for_unknown_session_is_404(self, admin):
        admin.activate("demo")
        with pytest.raises(GatewayClientError) as failure:
            admin.result("never-posed")
        assert failure.value.status == 404

    def test_long_poll_timeout_returns_an_empty_batch(self, served, admin):
        _, handle = served
        admin.activate("demo")
        token = admin.join("idler").token
        member = GatewayClient(handle.host, handle.port, token=token)
        started = time.perf_counter()
        batch = member.next_questions(wait=0.15)
        waited = time.perf_counter() - started
        assert batch.questions == ()
        assert batch.retry_after_s > 0
        assert waited >= 0.1  # it actually long-polled
        member.close()

    def test_duplicate_answer_is_idempotent(self, served, admin):
        _, handle = served
        admin.activate("demo")
        admin.pose_query(threshold=0.4, session_id="s-dup")
        token = admin.join("m-dup").token
        member = GatewayClient(handle.host, handle.port, token=token)
        batch = member.next_questions(wait=2.0, k=1)
        assert batch.questions
        question = batch.questions[0]
        first = member.submit_answer(question.qid, 1.0)
        assert first.outcome in ("recorded", "passed")
        second = member.submit_answer(question.qid, 0.0)
        assert second.outcome == "stale"
        # the replay did not double-count: the session saw one answer
        result = admin.result("s-dup")
        assert result.questions_asked >= 1
        member.close()

    def test_unknown_qid_is_404_and_foreign_qid_is_403(self, served, admin):
        _, handle = served
        admin.activate("demo")
        admin.pose_query(threshold=0.4, session_id="s-owner")
        owner_token = admin.join("owner").token
        other_token = admin.join("other").token
        owner = GatewayClient(handle.host, handle.port, token=owner_token)
        other = GatewayClient(handle.host, handle.port, token=other_token)
        with pytest.raises(GatewayClientError) as failure:
            owner.submit_answer("q999", 1.0)
        assert failure.value.status == 404
        batch = owner.next_questions(wait=2.0, k=1)
        assert batch.questions
        with pytest.raises(GatewayClientError) as failure:
            other.submit_answer(batch.questions[0].qid, 1.0)
        assert failure.value.status == 403
        owner.close()
        other.close()

    def test_backpressure_comes_back_429(self):
        # the cap is cross-session (one in-flight question per member per
        # session), so three open sessions let one member hoard past it
        config = GatewayConfig(question_timeout=60.0, in_flight_limit=2)
        app = GatewayApp(config=config)
        with serve_in_thread(app) as handle:
            operator = GatewayClient(handle.host, handle.port)
            operator.activate("demo")
            for index, threshold in enumerate((0.2, 0.3, 0.4)):
                operator.pose_query(threshold=threshold, session_id=f"s-bp{index}")
            token = operator.join("hoarder").token
            member = GatewayClient(handle.host, handle.port, token=token)
            held = []
            # hoard questions without answering until the cap bites
            for _ in range(10):
                try:
                    batch = member.next_questions(wait=0.5, k=1)
                except GatewayClientError as error:
                    assert error.status == 429
                    break
                held.extend(batch.questions)
                assert len(held) <= config.in_flight_limit
            else:
                pytest.fail("never hit the in-flight cap")
            # answering drains the backlog and lifts the 429
            for question in held:
                member.submit_answer(question.qid, 1.0)
            batch = member.next_questions(wait=0.5, k=1)
            assert len(batch.questions) <= config.in_flight_limit
            member.close()
            operator.close()

    def test_join_is_idempotent_per_member(self, admin):
        admin.activate("demo")
        first = admin.join("w1")
        again = admin.join("w1")
        assert first.token == again.token

    def test_anonymous_member_ids_are_the_next_free_number(self):
        # no randomness in the id: a journal replay or a chaos seed mints
        # the same members
        app = GatewayApp()
        app.activate_dataset("demo")
        assert app.join("w2").member_id == "w2"
        assert app.join().member_id == "w3"

    def test_activation_is_idempotent_for_the_active_dataset(self, admin):
        assert admin.activate("demo").activated
        assert not admin.activate("demo").activated

    def test_clean_shutdown(self):
        app = GatewayApp()
        handle = serve_in_thread(app)
        client = GatewayClient(handle.host, handle.port)
        assert client.health()["status"] == "ok"
        client.close()
        handle.stop()
        fresh = GatewayClient(handle.host, handle.port, retry=RetryPolicy(retries=0))
        with pytest.raises(GatewayClientError):
            fresh.health()
        fresh.close()
        handle.stop()  # idempotent


class TestMcpSurface:
    def test_tools_are_gated_on_activation(self):
        app = GatewayApp()
        mcp = McpGateway(app)
        assert mcp.available_tools() == ["list_datasets", "activate_dataset"]
        response = mcp.handle(
            {
                "jsonrpc": "2.0",
                "id": 1,
                "method": "tools/call",
                "params": {"name": "pose_query", "arguments": {}},
            }
        )
        assert response["result"]["isError"]
        assert "activate a dataset first" in response["result"]["content"][0]["text"]
        app.activate_dataset("demo")
        assert "pose_query" in mcp.available_tools()

    def test_full_member_lifecycle_over_mcp_http(self, served, admin):
        admin.activate("demo")

        def call(method, params=None, rpc_id=1):
            return admin.mcp(
                {"jsonrpc": "2.0", "id": rpc_id, "method": method,
                 "params": params or {}}
            )

        def tool_payload(response):
            assert not response["result"]["isError"], response
            return json.loads(response["result"]["content"][0]["text"])

        initialized = call("initialize")
        assert initialized["result"]["serverInfo"]["name"] == "oassis-gateway"
        listed = call("tools/list")
        names = [tool["name"] for tool in listed["result"]["tools"]]
        assert "submit_answer" in names
        posed = tool_payload(
            call("tools/call", {"name": "pose_query",
                                "arguments": {"threshold": 0.4}})
        )
        session_id = posed["session_id"]
        # MCP has no long poll: retry the single dispatch attempt briefly
        questions = []
        for _ in range(100):
            fetched = tool_payload(
                call("tools/call",
                     {"name": "next_questions",
                      "arguments": {"member_id": "agent-1"}})
            )
            questions = fetched["questions"]
            if questions:
                break
            time.sleep(0.02)
        assert questions, "dispatch never produced a question"
        answered = tool_payload(
            call(
                "tools/call",
                {
                    "name": "submit_answer",
                    "arguments": {
                        "member_id": "agent-1",
                        "qid": questions[0]["qid"],
                        "support": 1.0,
                    },
                },
            )
        )
        assert answered["outcome"] in ("recorded", "passed")
        result = tool_payload(
            call("tools/call",
                 {"name": "get_result",
                  "arguments": {"session_id": session_id}})
        )
        assert result["session_id"] == session_id

    def test_pose_query_tool_tells_a_bad_query_from_a_taken_id(self):
        app = GatewayApp()
        app.activate_dataset("demo")
        mcp = McpGateway(app)

        def pose(arguments):
            response = mcp.handle(
                {
                    "jsonrpc": "2.0",
                    "id": 3,
                    "method": "tools/call",
                    "params": {"name": "pose_query", "arguments": arguments},
                }
            )
            return response["result"]["isError"], response["result"]["content"][0]["text"]

        assert pose({"session_id": "m1"})[0] is False
        is_error, text = pose({"query": "garbage ((", "session_id": "m2"})
        assert is_error and text.startswith("bad_request: query rejected")
        is_error, text = pose({"session_id": "m1"})
        assert is_error and text.startswith("conflict: ")

    def test_unknown_tool_lists_the_known_ones(self):
        mcp = McpGateway(GatewayApp())
        response = mcp.handle(
            {
                "jsonrpc": "2.0",
                "id": 9,
                "method": "tools/call",
                "params": {"name": "mine_bitcoin", "arguments": {}},
            }
        )
        assert response["result"]["isError"]
        assert "list_datasets" in response["result"]["content"][0]["text"]

    def test_protocol_violations_are_rpc_errors(self):
        mcp = McpGateway(GatewayApp())
        bad_envelope = mcp.handle({"id": 1, "method": "tools/list"})
        assert bad_envelope["error"]["code"] == -32600
        unknown = mcp.handle(
            {"jsonrpc": "2.0", "id": 2, "method": "tools/uninstall"}
        )
        assert unknown["error"]["code"] == -32601


class TestEndToEndIdentity:
    """The acceptance oracle: loopback HTTP replay == serial execute."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_demo_campaign_matches_serial(self, seed):
        app = GatewayApp()
        with serve_in_thread(app) as handle:
            report = replay_campaign(
                host=handle.host,
                port=handle.port,
                domain="demo",
                sessions=2,
                crowd_size=4,
                seed=seed,
                wait=0.05,
                max_runtime=60.0,
            )
        assert report["errors"] == []
        assert not report["timed_out"]
        assert report["mismatches"] == []
        assert report["verified"]

    def test_travel_campaign_matches_serial(self):
        app = GatewayApp()
        with serve_in_thread(app) as handle:
            report = replay_campaign(
                host=handle.host,
                port=handle.port,
                domain="travel",
                sessions=1,
                crowd_size=4,
                thresholds=(0.5,),
                seed=0,
                wait=0.05,
                max_runtime=90.0,
            )
        assert report["errors"] == []
        assert report["verified"]

    def test_campaign_survives_injected_disconnects_and_stalls(self):
        faults = FaultPlan(
            [
                FaultSpec("gateway.request", FaultKind.DISCONNECT, rate=0.01),
                FaultSpec("gateway.request", FaultKind.SLOW_CLIENT, rate=0.05),
            ],
            seed=0,
        )
        app = GatewayApp(
            config=GatewayConfig(slow_client_delay=0.01), faults=faults
        )
        with tracing() as tracer:
            with serve_in_thread(app) as handle:
                report = replay_campaign(
                    host=handle.host,
                    port=handle.port,
                    domain="demo",
                    sessions=2,
                    crowd_size=4,
                    seed=0,
                    wait=0.05,
                    max_runtime=60.0,
                )
        assert report["verified"], report
        injected = tracer.counters.get("faults.injected.disconnect", 0)
        assert injected > 0, "the plan never fired; the test proves nothing"
        assert tracer.counters.get("gateway.disconnects.injected") == injected
        assert tracer.counters.get("faults.injected.slow_client", 0) > 0

    def test_gateway_records_latency_histograms(self):
        app = GatewayApp()
        with tracing() as tracer:
            with serve_in_thread(app) as handle:
                replay_campaign(
                    host=handle.host,
                    port=handle.port,
                    domain="demo",
                    sessions=1,
                    crowd_size=4,
                    seed=0,
                    wait=0.05,
                    max_runtime=60.0,
                )
        for name in ("gateway.latency.next", "gateway.latency.answer",
                     "gateway.latency.query", "gateway.latency.result"):
            assert tracer.histograms[name].count > 0, name
        assert unregistered_names(tracer) == frozenset()
        report = tracer.report()
        assert report["gateway"]["requests"] > 0
        assert report["gateway"]["answers_accepted"] > 0


class TestConcurrentMembersShareOneLoop:
    def test_parallel_long_polls_do_not_serialize(self, served, admin):
        """Concurrent long-polls must wait in parallel: the async server
        holds every line open on one event loop."""
        _, handle = served
        admin.activate("demo")
        tokens = [admin.join(f"p{i}").token for i in range(4)]
        elapsed = []

        def poll(token):
            client = GatewayClient(handle.host, handle.port, token=token)
            started = time.perf_counter()
            client.next_questions(wait=0.3)
            elapsed.append(time.perf_counter() - started)
            client.close()

        threads = [
            threading.Thread(target=poll, args=(token,)) for token in tokens
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = time.perf_counter() - started
        assert len(elapsed) == 4
        # serialized waits would take ~4 * 0.3s; parallel ones ~0.3s
        assert total < 0.9, f"long-polls serialized: {total:.2f}s {elapsed}"
