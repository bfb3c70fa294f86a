"""The asyncio HTTP transport of the crowd gateway.

A deliberately small HTTP/1.1 server on stdlib ``asyncio`` streams — no
framework, no third-party dependency.  One
:class:`GatewayServer` serves one :class:`~repro.gateway.app.GatewayApp`
over loopback (or any interface):

====== ===================== ============================== =============
method path                  body / query                   auth
====== ===================== ============================== =============
GET    /health               —                              open
GET    /datasets             —                              open
POST   /datasets/activate    ActivateRequest                admin
POST   /join                 JoinRequest                    open
POST   /query                QueryRequest                   admin
GET    /next?wait=S&k=N      —                              member token
POST   /answer               AnswerRequest                  member token
GET    /result?session=ID    —                              admin
POST   /mcp                  JSON-RPC 2.0                   admin
====== ===================== ============================== =============

``/next`` is a **long poll**: the server re-checks the member's queues
every ``poll_interval`` seconds until a batch appears or ``wait``
(capped at ``long_poll_max_wait``) elapses, then returns — an empty
batch on timeout is a normal 200, not an error.  A member already at
their in-flight cap gets 429 immediately (backpressure; see
``docs/GATEWAY.md``).

Fault injection: when the app carries a
:class:`~repro.faults.plan.FaultPlan`, every parsed request consults the
``gateway.request`` site.  ``DISCONNECT`` closes the connection without
a response; ``SLOW_CLIENT`` stalls the response by
``slow_client_delay`` seconds.  Both are counted.

Every request increments ``gateway.requests`` and lands one sample in
the per-endpoint ``gateway.latency.*`` histogram, registered in
:mod:`repro.observability.names`.  Time a ``/next`` request spends
*parked* in the long poll is not service time: it is recorded separately
in ``gateway.poll.wait`` and subtracted from the ``gateway.latency.next``
sample, so the handler histogram measures actual work (the PR 8 bench
conflated the two and reported the poll sleep as p99).

``GET /next`` also accepts ``deadline_s`` — the client's remaining retry
budget, propagated from :class:`~repro.gateway.client.RetryPolicy` — and
caps the long-poll wait to it so a recovering server never parks a
client past its own deadline.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..faults.plan import FaultKind
from ..observability import (
    count as _obs_count,
    enable as _obs_enable,
    get_tracer,
    observe as _obs_observe,
)
from .app import BackpressureError, GatewayApp, GatewayError
from .mcp import McpGateway
from .schema import (
    ActivateRequest,
    AnswerRequest,
    ErrorResponse,
    JoinRequest,
    QueryRequest,
    SchemaError,
)

#: request-line + single-header length cap (bytes)
_LINE_LIMIT = 16384
#: request body length cap (bytes)
_BODY_LIMIT = 4 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

#: endpoint path -> latency histogram name (see observability.names)
_LATENCY_NAMES = {
    "/health": "gateway.latency.health",
    "/datasets": "gateway.latency.datasets",
    "/datasets/activate": "gateway.latency.activate",
    "/join": "gateway.latency.join",
    "/query": "gateway.latency.query",
    "/next": "gateway.latency.next",
    "/answer": "gateway.latency.answer",
    "/result": "gateway.latency.result",
    "/mcp": "gateway.latency.mcp",
}


class _BadRequest(Exception):
    """A request the HTTP layer itself rejects (framing, JSON, size)."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


class _Request:
    """One parsed HTTP request."""

    __slots__ = (
        "method",
        "path",
        "query",
        "headers",
        "body",
        "keep_alive",
        "poll_wait",
    )

    def __init__(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        headers: Dict[str, str],
        body: bytes,
        keep_alive: bool,
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive
        #: seconds this request spent parked in the long poll — excluded
        #: from its service-time histogram sample
        self.poll_wait = 0.0

    def bearer_token(self) -> Optional[str]:
        value = self.headers.get("authorization", "")
        if value.lower().startswith("bearer "):
            return value[7:].strip()
        return None

    def json(self) -> Any:
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _BadRequest(400, f"request body is not valid JSON: {error}")


class GatewayServer:
    """Serves one :class:`GatewayApp` over asyncio-streams HTTP/1.1."""

    def __init__(
        self,
        app: GatewayApp,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.app = app
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._mcp = McpGateway(app)

    # -------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self._requested_port
        )
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.port = sock.getsockname()[1]
            break

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------ connection

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as error:
                    _obs_count("gateway.requests")
                    _obs_count("gateway.errors.client")
                    await self._respond(
                        writer,
                        error.status,
                        ErrorResponse("bad_request", error.detail).to_wire(),
                        keep_alive=False,
                    )
                    return
                if request is None:
                    return
                _obs_count("gateway.requests")
                if not await self._survive_faults(request, writer):
                    return
                started = time.perf_counter()
                keep_alive = await self._dispatch(request, writer)
                elapsed = time.perf_counter() - started
                if request.poll_wait > 0.0:
                    _obs_observe("gateway.poll.wait", request.poll_wait)
                _obs_observe(
                    _LATENCY_NAMES.get(request.path, "gateway.latency.other"),
                    max(0.0, elapsed - request.poll_wait),
                )
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        except asyncio.CancelledError:
            pass  # server tearing down (restart); connection dies with it
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # already torn down; close is best-effort

    async def _survive_faults(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> bool:
        """Consult the ``gateway.request`` fault site; False = dropped."""
        faults = self.app.faults
        if faults is None:
            return True
        member = self._fault_identity(request)
        kind = faults.decide("gateway.request", member)
        if kind is FaultKind.DISCONNECT:
            _obs_count("gateway.disconnects.injected")
            writer.close()
            return False
        if kind is FaultKind.SLOW_CLIENT:
            _obs_count("gateway.slow_responses.injected")
            await asyncio.sleep(self.app.config.slow_client_delay)
        return True

    def _fault_identity(self, request: _Request) -> Optional[str]:
        """Attribute the fault decision to the calling member, if known."""
        token = request.bearer_token()
        if token is None:
            return None
        try:
            return self.app.authenticate(token)
        except GatewayError:
            return None

    # --------------------------------------------------------------- parsing

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_Request]:
        try:
            line = await reader.readline()
        except (ValueError, ConnectionError):
            raise _BadRequest(400, "request line too long or unreadable")
        if not line:
            return None  # clean EOF between requests
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(400, f"malformed request line {line!r}")
        method, target, version = parts
        headers: Dict[str, str] = {}
        while True:
            try:
                raw = await reader.readline()
            except (ValueError, ConnectionError):
                raise _BadRequest(400, "header line too long or unreadable")
            if len(raw) > _LINE_LIMIT:
                raise _BadRequest(400, "header line too long")
            text = raw.decode("latin-1").strip()
            if not text:
                break
            name, _, value = text.partition(":")
            if not _:
                raise _BadRequest(400, f"malformed header {text!r}")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _BadRequest(400, f"bad Content-Length {length_text!r}")
        if length < 0:
            raise _BadRequest(400, "negative Content-Length")
        if length > _BODY_LIMIT:
            raise _BadRequest(413, f"body exceeds {_BODY_LIMIT} bytes")
        body = b""
        if length:
            body = await reader.readexactly(length)
        split = urlsplit(target)
        query = {
            key: values[-1]
            for key, values in parse_qs(split.query).items()
        }
        connection = headers.get("connection", "").lower()
        keep_alive = version != "HTTP/1.0" and connection != "close"
        return _Request(
            method.upper(), split.path, query, headers, body, keep_alive
        )

    # -------------------------------------------------------------- dispatch

    async def _dispatch(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> bool:
        try:
            status, payload = await self._route(request)
        except _BadRequest as error:
            _obs_count("gateway.errors.client")
            status, payload = error.status, ErrorResponse(
                "bad_request", error.detail
            ).to_wire()
        except SchemaError as error:
            _obs_count("gateway.errors.client")
            status, payload = 400, ErrorResponse(
                "schema_error", str(error)
            ).to_wire()
        except BackpressureError as error:
            _obs_count("gateway.backpressure.rejected")
            status, payload = error.status, ErrorResponse(
                error.error,
                error.detail,
                retry_after_s=self.app.config.poll_interval * 10,
            ).to_wire()
        except GatewayError as error:
            if error.status not in (401, 403):
                # auth rejections were already counted by the app
                _obs_count("gateway.errors.client")
            status, payload = error.status, ErrorResponse(
                error.error, error.detail
            ).to_wire()
        except Exception as error:  # noqa: broad, the 500 boundary
            _obs_count("gateway.errors.server")
            status, payload = 500, ErrorResponse(
                "internal_error", f"{type(error).__name__}: {error}"
            ).to_wire()
        await self._respond(writer, status, payload, keep_alive=request.keep_alive)
        return request.keep_alive

    async def _route(self, request: _Request) -> Tuple[int, Dict[str, Any]]:
        app = self.app
        method, path = request.method, request.path
        if path == "/health" and method == "GET":
            return 200, {
                "v": 1,
                "status": "ok",
                "dataset": app.active_dataset,
            }
        if path == "/datasets" and method == "GET":
            return 200, app.list_datasets().to_wire()
        if path == "/datasets/activate" and method == "POST":
            app.require_admin(request.bearer_token())
            decoded = ActivateRequest.from_wire(request.json())
            return 200, app.activate_dataset(decoded.name).to_wire()
        if path == "/join" and method == "POST":
            decoded_join = JoinRequest.from_wire(request.json())
            return 200, app.join(decoded_join.member_id).to_wire()
        if path == "/query" and method == "POST":
            app.require_admin(request.bearer_token())
            decoded_query = QueryRequest.from_wire(request.json())
            return 200, app.pose_query(decoded_query).to_wire()
        if path == "/next" and method == "GET":
            member = app.authenticate(request.bearer_token())
            return await self._long_poll(member, request)
        if path == "/answer" and method == "POST":
            member = app.authenticate(request.bearer_token())
            decoded_answer = AnswerRequest.from_wire(request.json())
            response = app.submit_answer(
                member,
                decoded_answer.qid,
                decoded_answer.support,
                idempotency_key=decoded_answer.idempotency_key,
            )
            return 200, response.to_wire()
        if path == "/result" and method == "GET":
            app.require_admin(request.bearer_token())
            session_id = request.query.get("session")
            if not session_id:
                raise _BadRequest(400, "missing ?session=<id>")
            return 200, app.result(session_id).to_wire()
        if path == "/mcp" and method == "POST":
            app.require_admin(request.bearer_token())
            return 200, self._mcp.handle(request.json())
        if path in _LATENCY_NAMES:
            raise _BadRequest(405, f"{method} not allowed on {path}")
        raise _BadRequest(404, f"no such endpoint {path}")

    async def _long_poll(
        self, member_id: str, request: _Request
    ) -> Tuple[int, Dict[str, Any]]:
        """``GET /next``: poll until questions appear or ``wait`` elapses."""
        app = self.app
        try:
            wait = float(request.query.get("wait", "0"))
            k_text = request.query.get("k")
            k = int(k_text) if k_text is not None else None
            deadline_text = request.query.get("deadline_s")
            client_deadline = (
                float(deadline_text) if deadline_text is not None else None
            )
        except ValueError:
            raise _BadRequest(400, "wait, k and deadline_s must be numbers")
        if app.at_capacity(member_id):
            raise BackpressureError(
                f"member {member_id} is at the in-flight limit "
                f"({app.config.in_flight_limit}); answer something first"
            )
        wait = max(0.0, min(wait, app.config.long_poll_max_wait))
        if client_deadline is not None:
            # never park a client past its own propagated retry budget
            wait = max(0.0, min(wait, client_deadline))
        loop = asyncio.get_running_loop()
        deadline = loop.time() + wait
        waited = False
        while True:
            batch = app.next_questions(member_id, k)
            if batch.questions:
                return 200, batch.to_wire()
            if not waited:
                waited = True
                _obs_count("gateway.longpoll.waits")
            if loop.time() >= deadline:
                _obs_count("gateway.longpoll.empty")
                empty = batch.to_wire()
                empty["retry_after_s"] = app.config.poll_interval * 10
                return 200, empty
            slept_from = loop.time()
            await asyncio.sleep(app.config.poll_interval)
            request.poll_wait += loop.time() - slept_from

    # -------------------------------------------------------------- response

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        *,
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = _STATUS_TEXT.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()


class GatewayHandle:
    """A running gateway in a background thread (tests, CLI).

    ``stop()`` shuts the event loop down cleanly and joins the thread;
    the handle is also a context manager.
    """

    def __init__(
        self,
        thread: threading.Thread,
        loop: asyncio.AbstractEventLoop,
        stop_event: asyncio.Event,
        host: str,
        port: int,
    ) -> None:
        self._thread = thread
        self._loop = loop
        self._stop_event = stop_event
        self.host = host
        self.port = port

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout)

    def __enter__(self) -> "GatewayHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def serve_in_thread(
    app: GatewayApp, host: str = "127.0.0.1", port: int = 0
) -> GatewayHandle:
    """Start a gateway server on a daemon thread; returns its handle.

    The tracer active in the *calling* context is re-enabled inside the
    server thread (context variables do not cross threads), so
    ``gateway.*`` counters and latency histograms land on the caller's
    tracer.  While the server runs, its event loop is the one thread
    that calls ``app``; talk to it over HTTP, not directly.
    """
    tracer = get_tracer()
    started = threading.Event()
    box: Dict[str, Any] = {}

    async def _serve() -> None:
        server = GatewayServer(app, host=host, port=port)
        await server.start()
        stop_event = asyncio.Event()
        box["loop"] = asyncio.get_running_loop()
        box["stop"] = stop_event
        box["port"] = server.port
        started.set()
        try:
            await stop_event.wait()
        finally:
            await server.close()

    def _main() -> None:
        if tracer is not None:
            _obs_enable(tracer)
        try:
            asyncio.run(_serve())
        except Exception as error:
            _obs_count("gateway.errors.server")
            box["error"] = error
            started.set()  # wake the caller, who re-raises from box["error"]

    thread = threading.Thread(target=_main, name="gateway-http", daemon=True)
    thread.start()
    if not started.wait(10.0) or "error" in box:
        raise RuntimeError(f"gateway failed to start: {box.get('error')}")
    return GatewayHandle(
        thread, box["loop"], box["stop"], host, int(box["port"])
    )
