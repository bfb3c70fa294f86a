"""repro.api — the single public client facade over the reproduction.

Historically the project grew three divergent entry points: batch
``OassisEngine.execute`` for serial mining, ``run_simulation`` for the
in-process service campaign, and ``engine.shard_coordinator`` for the
process-sharded serving path.  :class:`Client` consolidates them behind
one object with keyword-only, typed methods whose request/response
dataclasses are exactly the wire DTOs of :mod:`repro.gateway.schema` —
what you get in-process is what you would get over HTTP or MCP, minus
the transport.

Session-style usage mirrors the gateway endpoint table::

    from repro.api import Client

    client = Client(domain="demo")
    accepted = client.pose_query(threshold=0.4)
    client.join(member_id="m0")
    batch = client.next_questions(member_id="m0")
    client.submit_answer(member_id="m0", qid=batch.questions[0].qid, support=1.0)
    result = client.result(session_id=accepted.session_id)

Batch-style usage replaces the legacy entry points::

    result = client.execute(query=None, members=crowd)      # engine.execute
    report = client.simulate(sessions=4)                    # run_simulation
    coord = client.shard_coordinator(shards=2, crowd_size=6)

``docs/MIGRATION.md`` has the old → new table.  :meth:`Client.serve`
lifts the same application state onto the network via
:func:`repro.gateway.serve_in_thread`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Sequence

from ..crowd.member import CrowdMember
from ..engine.engine import OassisEngine
from ..engine.results import QueryResult
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
    """One facade over batch mining, simulation, sharding and serving.

    Wraps an in-process :class:`~repro.gateway.app.GatewayApp`, so every
    session-style method speaks the same typed DTOs the HTTP and MCP
    transports serialize.  Auth is a transport concern — in-process
    calls address members by ``member_id`` directly and never mint
    tokens.
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

    # ------------------------------------------------------------- internals

    @property
    def app(self) -> GatewayApp:
        """The underlying gateway application (shared with transports)."""
        return self._app

    @property
    def engine(self) -> OassisEngine:
        """The active dataset's engine; raises until a dataset is active."""
        engine = self._app.engine
        if engine is None:
            raise RuntimeError(
                "no dataset is active; pass domain= to Client() or call "
                "client.activate(name=...)"
            )
        return engine

    def _require_dataset(self) -> object:
        dataset = self._app.dataset
        if dataset is None:
            raise RuntimeError(
                "no dataset is active; pass domain= to Client() or call "
                "client.activate(name=...)"
            )
        return dataset

    # --------------------------------------------------- session-style (DTOs)

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

    # ------------------------------------------------------ batch-style modes

    def execute(
        self,
        *,
        query: Optional[str] = None,
        members: Sequence[CrowdMember],
        threshold: float = 0.4,
        sample_size: Optional[int] = None,
        cache: Optional[object] = None,
        more_pool: Optional[Iterable[object]] = None,
        include_invalid: Optional[bool] = None,
        max_total_questions: Optional[int] = None,
    ) -> QueryResult:
        """Serial batch mining over ``members`` (was ``engine.execute``).

        ``query=None`` uses the active dataset's query template at
        ``threshold`` — the same defaulting rule as :meth:`pose_query`.
        """
        if query is None:
            dataset = self._require_dataset()
            query = dataset.query(threshold)  # type: ignore[attr-defined]
        return self.engine.execute(
            query,
            members,
            sample_size=sample_size,
            cache=cache,  # type: ignore[arg-type]
            more_pool=more_pool,  # type: ignore[arg-type]
            include_invalid=include_invalid,
            max_total_questions=max_total_questions,
        )

    def simulate(self, **options: Any) -> Dict[str, Any]:
        """Run a full in-process service campaign (was ``run_simulation``).

        Keyword options are forwarded verbatim; the active dataset's
        name becomes the default ``domain`` when one is active.
        """
        from ..service.simulation import run_simulation as _run

        active = self._app.active_dataset
        if active is not None:
            options.setdefault("domain", active)
        return _run(**options)

    def shard_coordinator(self, **options: Any) -> Any:
        """A process-sharded coordinator on the active dataset.

        Was ``engine.shard_coordinator(dataset, ...)``; the dataset and
        engine now both come from the client's activated domain.
        """
        dataset = self._require_dataset()
        active = self._app.active_dataset
        if active is not None:
            options.setdefault("domain", active)
        return self.engine.shard_coordinator(dataset, **options)

    # --------------------------------------------------------------- serving

    def serve(
        self, *, host: str = "127.0.0.1", port: int = 0
    ) -> GatewayHandle:
        """Lift this client's application state onto loopback HTTP."""
        return serve_in_thread(self._app, host=host, port=port)

    def mcp(self) -> McpGateway:
        """An MCP tool surface over this client's application state."""
        return McpGateway(self._app)
