"""The MCP tool surface of the crowd gateway.

Exposes the same :class:`~repro.gateway.app.GatewayApp` as a set of MCP
tools over JSON-RPC 2.0 (``initialize`` / ``tools/list`` /
``tools/call``), served at ``POST /mcp`` by the HTTP transport or driven
directly via :meth:`McpGateway.handle`.

The surface is **modality gated**: until a dataset is activated only the
discovery tools (``list_datasets``, ``activate_dataset``) are listed;
the mining tools (``pose_query``, ``next_questions``,
``submit_answer``, ``get_result``) appear once activation gives them
something to act on.  Calling a known-but-unavailable tool is not an
opaque failure — the error names the missing prerequisite ("activate a
dataset first..."), and calling an unknown tool lists every tool the
gateway knows.  Tool-level failures come back as MCP ``isError``
results; only protocol violations (bad JSON-RPC envelope, unknown
method) produce JSON-RPC error objects.

Member identity over MCP is by ``member_id``: ``next_questions`` joins
the member implicitly on first use, so one agent can drive a whole
member lifecycle through three tool calls.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Tuple

from ..observability import count as _obs_count
from .app import GatewayApp, GatewayError
from .schema import SCHEMA_VERSION, QueryRequest, SchemaError

#: the MCP protocol revision this server reports
PROTOCOL_VERSION = "2024-11-05"

_UNGATED = ("list_datasets", "activate_dataset")
_GATED = ("pose_query", "next_questions", "submit_answer", "get_result")


def _schema(properties: Dict[str, Any], required: Tuple[str, ...] = ()) -> Dict[str, Any]:
    return {
        "type": "object",
        "properties": properties,
        "required": list(required),
    }


_TOOL_SPECS: Dict[str, Dict[str, Any]] = {
    "list_datasets": {
        "description": "List the activatable crowd-mining datasets and "
        "which one is active.",
        "inputSchema": _schema({}),
    },
    "activate_dataset": {
        "description": "Activate a dataset: builds the mining engine and "
        "session manager for it. Required before any mining tool.",
        "inputSchema": _schema(
            {"name": {"type": "string", "description": "dataset name"}},
            ("name",),
        ),
    },
    "pose_query": {
        "description": "Open a mining session. Pass OASSIS-QL text in "
        "'query', or omit it to use the active dataset's template at "
        "'threshold'.",
        "inputSchema": _schema(
            {
                "query": {"type": "string"},
                "threshold": {"type": "number"},
                "sample_size": {"type": "integer"},
                "session_id": {"type": "string"},
            }
        ),
    },
    "next_questions": {
        "description": "Fetch up to 'k' crowd questions for 'member_id' "
        "(the member joins implicitly on first use).",
        "inputSchema": _schema(
            {
                "member_id": {"type": "string"},
                "k": {"type": "integer"},
            },
            ("member_id",),
        ),
    },
    "submit_answer": {
        "description": "Answer a dispatched question: 'support' in [0,1], "
        "or null to pass.",
        "inputSchema": _schema(
            {
                "member_id": {"type": "string"},
                "qid": {"type": "string"},
                "support": {"type": ["number", "null"]},
            },
            ("member_id", "qid"),
        ),
    },
    "get_result": {
        "description": "The session's incremental MSP set; poll until "
        "'done' is true.",
        "inputSchema": _schema(
            {"session_id": {"type": "string"}}, ("session_id",)
        ),
    },
}


class McpGateway:
    """JSON-RPC 2.0 adapter exposing a :class:`GatewayApp` as MCP tools."""

    def __init__(self, app: GatewayApp) -> None:
        self.app = app
        self._handlers: Dict[str, Callable[[Dict[str, Any]], Any]] = {
            "list_datasets": self._tool_list_datasets,
            "activate_dataset": self._tool_activate_dataset,
            "pose_query": self._tool_pose_query,
            "next_questions": self._tool_next_questions,
            "submit_answer": self._tool_submit_answer,
            "get_result": self._tool_get_result,
        }

    # -------------------------------------------------------------- protocol

    def available_tools(self) -> List[str]:
        """The tools listed right now (gated on dataset activation)."""
        names = list(_UNGATED)
        if self.app.active_dataset is not None:
            names.extend(_GATED)
        return names

    def handle(self, message: Any) -> Dict[str, Any]:
        """One JSON-RPC request in, one JSON-RPC response out."""
        if not isinstance(message, dict) or message.get("jsonrpc") != "2.0":
            return self._rpc_error(
                None, -32600, "expected a JSON-RPC 2.0 request object"
            )
        request_id = message.get("id")
        method = message.get("method")
        params = message.get("params") or {}
        if not isinstance(params, dict):
            return self._rpc_error(request_id, -32602, "params must be an object")
        if method == "initialize":
            return self._rpc_result(
                request_id,
                {
                    "protocolVersion": PROTOCOL_VERSION,
                    "capabilities": {"tools": {"listChanged": True}},
                    "serverInfo": {
                        "name": "oassis-gateway",
                        "version": str(SCHEMA_VERSION),
                    },
                },
            )
        if method == "tools/list":
            tools = [
                {"name": name, **_TOOL_SPECS[name]}
                for name in self.available_tools()
            ]
            return self._rpc_result(request_id, {"tools": tools})
        if method == "tools/call":
            return self._call_tool(request_id, params)
        return self._rpc_error(
            request_id, -32601, f"unknown method {method!r}"
        )

    def _call_tool(
        self, request_id: Any, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        name = params.get("name")
        arguments = params.get("arguments") or {}
        if not isinstance(name, str):
            return self._rpc_error(request_id, -32602, "missing tool name")
        if not isinstance(arguments, dict):
            return self._rpc_error(
                request_id, -32602, "tool arguments must be an object"
            )
        _obs_count("gateway.mcp.calls")
        if name not in self._handlers:
            known = ", ".join(sorted(self._handlers))
            return self._tool_error(
                request_id,
                f"unknown tool {name!r}; this gateway offers: {known}",
            )
        if name not in self.available_tools():
            _obs_count("gateway.mcp.unavailable")
            return self._tool_error(
                request_id,
                f"tool {name!r} is not available yet: activate a dataset "
                "first with activate_dataset (see list_datasets for the "
                "choices)",
            )
        try:
            payload = self._handlers[name](arguments)
        except GatewayError as error:
            # the HTTP error name leads, so an agent can tell a rejected
            # query (bad_request) from a taken session id (conflict)
            return self._tool_error(request_id, f"{error.error}: {error}")
        except SchemaError as error:
            return self._tool_error(request_id, f"schema_error: {error}")
        return self._rpc_result(
            request_id,
            {
                "content": [
                    {
                        "type": "text",
                        "text": json.dumps(payload, sort_keys=True),
                    }
                ],
                "isError": False,
            },
        )

    # ----------------------------------------------------------------- tools

    def _tool_list_datasets(self, arguments: Dict[str, Any]) -> Dict[str, Any]:
        return self.app.list_datasets().to_wire()

    def _tool_activate_dataset(self, arguments: Dict[str, Any]) -> Dict[str, Any]:
        name = arguments.get("name")
        if not isinstance(name, str):
            raise SchemaError("activate_dataset needs a string 'name'")
        return self.app.activate_dataset(name).to_wire()

    def _tool_pose_query(self, arguments: Dict[str, Any]) -> Dict[str, Any]:
        request = QueryRequest.from_wire({**arguments, "v": SCHEMA_VERSION})
        return self.app.pose_query(request).to_wire()

    def _tool_next_questions(self, arguments: Dict[str, Any]) -> Dict[str, Any]:
        member_id = arguments.get("member_id")
        if not isinstance(member_id, str):
            raise SchemaError("next_questions needs a string 'member_id'")
        k = arguments.get("k")
        if k is not None and (isinstance(k, bool) or not isinstance(k, int)):
            raise SchemaError("'k' must be an integer")
        self.app.join(member_id)  # implicit, idempotent
        return self.app.next_questions(member_id, k).to_wire()

    def _tool_submit_answer(self, arguments: Dict[str, Any]) -> Dict[str, Any]:
        member_id = arguments.get("member_id")
        qid = arguments.get("qid")
        if not isinstance(member_id, str) or not isinstance(qid, str):
            raise SchemaError(
                "submit_answer needs string 'member_id' and 'qid'"
            )
        support = arguments.get("support")
        if support is not None:
            if isinstance(support, bool) or not isinstance(support, (int, float)):
                raise SchemaError("'support' must be a number or null")
            support = float(support)
        return self.app.submit_answer(member_id, qid, support).to_wire()

    def _tool_get_result(self, arguments: Dict[str, Any]) -> Dict[str, Any]:
        session_id = arguments.get("session_id")
        if not isinstance(session_id, str):
            raise SchemaError("get_result needs a string 'session_id'")
        return self.app.result(session_id).to_wire()

    # --------------------------------------------------------------- framing

    @staticmethod
    def _rpc_result(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
        return {"jsonrpc": "2.0", "id": request_id, "result": result}

    @staticmethod
    def _rpc_error(request_id: Any, code: int, message: str) -> Dict[str, Any]:
        return {
            "jsonrpc": "2.0",
            "id": request_id,
            "error": {"code": code, "message": message},
        }

    def _tool_error(self, request_id: Any, message: str) -> Dict[str, Any]:
        """A tool-level failure: an ``isError`` result, not an RPC error."""
        return self._rpc_result(
            request_id,
            {
                "content": [{"type": "text", "text": message}],
                "isError": True,
            },
        )

