"""repro.api — the crowd gateway's session API, in process.

:class:`Client` wraps an in-process :class:`~repro.gateway.app.GatewayApp`
behind keyword-only, typed methods whose request/response dataclasses
are exactly the wire DTOs of :mod:`repro.gateway.schema` — what you get
in-process is what you would get over HTTP or MCP, minus the
transport.  The methods mirror the gateway endpoint table::

    from repro.api import Client

    client = Client(domain="demo")
    accepted = client.pose_query(threshold=0.4)
    client.join(member_id="m0")
    batch = client.next_questions(member_id="m0")
    client.submit_answer(member_id="m0", qid=batch.questions[0].qid, support=1.0)
    result = client.result(session_id=accepted.session_id)

:meth:`Client.serve` lifts the same application state onto the network
via :func:`repro.gateway.serve_in_thread`, and :meth:`Client.mcp` wraps
it in the MCP tool surface.  The other runtimes have one entry point
each: batch mining is :meth:`~repro.engine.engine.OassisEngine.execute`,
a simulated campaign is :func:`~repro.service.simulation.run_simulation`
(in process) or :func:`~repro.service.shard.run_sharded_simulation`
(process fleet).  ``docs/MIGRATION.md`` has the old → new table.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from ..gateway.app import GatewayApp, GatewayConfig
from ..gateway.http import GatewayHandle, serve_in_thread
from ..gateway.mcp import McpGateway
from ..gateway.schema import (
    ActivateResponse,
    AnswerResponse,
    DatasetList,
    JoinResponse,
    QueryAccepted,
    QueryRequest,
    QuestionBatch,
    ResultResponse,
)

__all__ = ["Client"]


class Client:
    """The gateway's session API over an in-process application.

    Wraps a :class:`~repro.gateway.app.GatewayApp`, so every method
    speaks the same typed DTOs the HTTP and MCP transports serialize.
    Auth is a transport concern — in-process calls address members by
    ``member_id`` directly and never mint tokens.
    """

    def __init__(
        self,
        *,
        domain: Optional[str] = None,
        config: Optional[GatewayConfig] = None,
        datasets: Optional[Mapping[str, Callable[[], object]]] = None,
    ) -> None:
        self._app = GatewayApp(config=config, datasets=datasets)
        if domain is not None:
            self._app.activate_dataset(domain)

    # ---------------------------------------------------------- application

    @property
    def app(self) -> GatewayApp:
        """The underlying gateway application (shared with transports)."""
        return self._app

    # ------------------------------------------------------------ sessions

    def datasets(self) -> DatasetList:
        """The activatable datasets and which one is active."""
        return self._app.list_datasets()

    def activate(self, *, name: str) -> ActivateResponse:
        """Activate ``name``: builds its engine and session manager."""
        return self._app.activate_dataset(name)

    def join(self, *, member_id: Optional[str] = None) -> JoinResponse:
        """Register a crowd member (idempotent per ``member_id``)."""
        return self._app.join(member_id)

    def pose_query(
        self,
        *,
        query: Optional[str] = None,
        threshold: float = 0.4,
        sample_size: int = 3,
        session_id: Optional[str] = None,
    ) -> QueryAccepted:
        """Open a mining session (``query=None`` uses the domain template)."""
        request = QueryRequest(
            query=query,
            threshold=threshold,
            sample_size=sample_size,
            session_id=session_id,
        )
        return self._app.pose_query(request)

    def next_questions(
        self, *, member_id: str, k: Optional[int] = None
    ) -> QuestionBatch:
        """Up to ``k`` dispatched questions for ``member_id`` (no waiting)."""
        return self._app.next_questions(member_id, k)

    def submit_answer(
        self, *, member_id: str, qid: str, support: Optional[float] = None
    ) -> AnswerResponse:
        """Answer a dispatched question (``support=None`` passes)."""
        return self._app.submit_answer(member_id, qid, support)

    def result(self, *, session_id: str) -> ResultResponse:
        """The session's incremental MSP set; ``done`` once it settles."""
        return self._app.result(session_id)

    # --------------------------------------------------------------- serving

    def serve(
        self, *, host: str = "127.0.0.1", port: int = 0
    ) -> GatewayHandle:
        """Lift this client's application state onto loopback HTTP."""
        return serve_in_thread(self._app, host=host, port=port)

    def mcp(self) -> McpGateway:
        """An MCP tool surface over this client's application state."""
        return McpGateway(self._app)
