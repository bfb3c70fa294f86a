"""repro.gateway — the network-facing crowd gateway (HTTP + MCP).

The wire surface of the OASSIS reproduction: an asyncio HTTP server
(:mod:`~repro.gateway.http`) and an MCP tool surface
(:mod:`~repro.gateway.mcp`) sharing one transport-independent core
(:class:`~repro.gateway.app.GatewayApp`) and one set of versioned wire
DTOs (:mod:`~repro.gateway.schema`).  See ``docs/GATEWAY.md`` for the
endpoint table, auth model, backpressure and failure modes, and
:mod:`repro.api` for the in-process client facade built on the same
DTOs.
"""

from .app import (
    AuthError,
    BackpressureError,
    ConflictError,
    ForbiddenError,
    GatewayApp,
    GatewayConfig,
    GatewayError,
    NotFoundError,
)
from .client import (
    GatewayClient,
    GatewayClientError,
    RetryPolicy,
    replay_campaign,
)
from .http import GatewayHandle, GatewayServer, serve_in_thread
from .journal import (
    GatewayJournal,
    GatewayLogState,
    replay_gateway_journal,
)
from .mcp import McpGateway
from .schema import (
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
)

__all__ = [
    "SCHEMA_VERSION",
    "ActivateRequest",
    "ActivateResponse",
    "AnswerRequest",
    "AnswerResponse",
    "AuthError",
    "BackpressureError",
    "ConflictError",
    "DatasetList",
    "ErrorResponse",
    "ForbiddenError",
    "GatewayApp",
    "GatewayClient",
    "GatewayClientError",
    "GatewayConfig",
    "GatewayError",
    "GatewayHandle",
    "GatewayJournal",
    "GatewayLogState",
    "GatewayServer",
    "JoinRequest",
    "JoinResponse",
    "McpGateway",
    "NotFoundError",
    "RetryPolicy",
    "QueryAccepted",
    "QueryRequest",
    "QuestionBatch",
    "QuestionDTO",
    "ResultResponse",
    "SchemaError",
    "replay_campaign",
    "replay_gateway_journal",
    "serve_in_thread",
]
