"""Versioned wire DTOs shared by the HTTP gateway, the MCP surface and
:class:`repro.api.Client`.

Every payload that crosses the wire is a JSON object carrying a ``v``
schema-version field and decoding through one of the dataclasses below.
The decode convention is **forward compatible**: unknown fields are
ignored (a newer peer may add them), missing optional fields take their
defaults, and only a payload that is structurally unusable — wrong JSON
type, missing required field, out-of-range value — raises
:class:`SchemaError`.  That is what lets an old client talk to a new
gateway and vice versa without a lockstep deploy.

The same dataclasses type the public API (:mod:`repro.api`): a
:class:`QuestionBatch` returned by :meth:`repro.api.Client.next_questions`
is byte-for-byte the object a member would have long-polled over HTTP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: current wire schema version; encoders always stamp this
SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """A wire payload that cannot be decoded (missing/ill-typed field)."""


_MISSING = object()


def _take(
    payload: Mapping[str, Any],
    name: str,
    kinds: Tuple[type, ...],
    default: Any = _MISSING,
) -> Any:
    """One typed field from a wire payload.

    ``bool`` is an ``int`` subclass in Python; it only passes when
    explicitly listed, so a ``true`` cannot masquerade as a count.
    """
    value = payload.get(name, _MISSING)
    if value is _MISSING or value is None:
        if default is _MISSING:
            raise SchemaError(f"missing required field {name!r}")
        return default
    if isinstance(value, bool) and bool not in kinds:
        raise SchemaError(f"field {name!r} must not be a boolean")
    if not isinstance(value, kinds):
        expected = "/".join(k.__name__ for k in kinds)
        raise SchemaError(
            f"field {name!r} must be {expected}, got {type(value).__name__}"
        )
    return value


def check_version(payload: Any) -> Dict[str, Any]:
    """Validate the envelope: a JSON object with an integer ``v >= 1``.

    Payloads with a *newer* version than ours still decode (forward
    compatibility — unknown fields are ignored by every ``from_wire``);
    only a missing or ill-typed ``v`` is rejected.
    """
    if not isinstance(payload, dict):
        raise SchemaError(
            f"wire payload must be a JSON object, got {type(payload).__name__}"
        )
    version = _take(payload, "v", (int,))
    if version < 1:
        raise SchemaError(f"schema version must be >= 1, got {version}")
    return payload


def _stamp(body: Dict[str, Any]) -> Dict[str, Any]:
    body["v"] = SCHEMA_VERSION
    return body


# --------------------------------------------------------------- join / auth


@dataclass(frozen=True)
class JoinRequest:
    """A member asking to join the crowd (``POST /join``)."""

    member_id: Optional[str] = None

    def to_wire(self) -> Dict[str, Any]:
        return _stamp({"member_id": self.member_id})

    @classmethod
    def from_wire(cls, payload: Any) -> "JoinRequest":
        payload = check_version(payload)
        return cls(member_id=_take(payload, "member_id", (str,), None))


@dataclass(frozen=True)
class JoinResponse:
    """The minted identity: the ``token`` authenticates every later call."""

    member_id: str
    token: str

    def to_wire(self) -> Dict[str, Any]:
        return _stamp({"member_id": self.member_id, "token": self.token})

    @classmethod
    def from_wire(cls, payload: Any) -> "JoinResponse":
        payload = check_version(payload)
        return cls(
            member_id=_take(payload, "member_id", (str,)),
            token=_take(payload, "token", (str,)),
        )


# ------------------------------------------------------------------ datasets


@dataclass(frozen=True)
class DatasetList:
    """``GET /datasets``: the activatable domains and the active one."""

    datasets: Tuple[str, ...]
    active: Optional[str] = None

    def to_wire(self) -> Dict[str, Any]:
        return _stamp({"datasets": list(self.datasets), "active": self.active})

    @classmethod
    def from_wire(cls, payload: Any) -> "DatasetList":
        payload = check_version(payload)
        names = _take(payload, "datasets", (list,))
        if not all(isinstance(name, str) for name in names):
            raise SchemaError("field 'datasets' must be a list of strings")
        return cls(
            datasets=tuple(names),
            active=_take(payload, "active", (str,), None),
        )


@dataclass(frozen=True)
class ActivateRequest:
    """``POST /datasets/activate``: choose the domain to serve."""

    name: str

    def to_wire(self) -> Dict[str, Any]:
        return _stamp({"name": self.name})

    @classmethod
    def from_wire(cls, payload: Any) -> "ActivateRequest":
        payload = check_version(payload)
        return cls(name=_take(payload, "name", (str,)))


@dataclass(frozen=True)
class ActivateResponse:
    """``activated`` is False when the dataset was already active."""

    name: str
    activated: bool

    def to_wire(self) -> Dict[str, Any]:
        return _stamp({"name": self.name, "activated": self.activated})

    @classmethod
    def from_wire(cls, payload: Any) -> "ActivateResponse":
        payload = check_version(payload)
        return cls(
            name=_take(payload, "name", (str,)),
            activated=_take(payload, "activated", (bool,)),
        )


# ------------------------------------------------------------------- queries


@dataclass(frozen=True)
class QueryRequest:
    """``POST /query``: open a mining session.

    ``query`` is full OASSIS-QL text; when omitted the active dataset's
    own query template is instantiated at ``threshold``.
    """

    query: Optional[str] = None
    threshold: float = 0.4
    sample_size: int = 3
    session_id: Optional[str] = None

    def to_wire(self) -> Dict[str, Any]:
        return _stamp(
            {
                "query": self.query,
                "threshold": self.threshold,
                "sample_size": self.sample_size,
                "session_id": self.session_id,
            }
        )

    @classmethod
    def from_wire(cls, payload: Any) -> "QueryRequest":
        payload = check_version(payload)
        threshold = float(_take(payload, "threshold", (int, float), 0.4))
        if not 0.0 <= threshold <= 1.0:
            raise SchemaError(f"threshold must be in [0, 1], got {threshold}")
        sample_size = _take(payload, "sample_size", (int,), 3)
        if sample_size < 1:
            raise SchemaError(f"sample_size must be >= 1, got {sample_size}")
        return cls(
            query=_take(payload, "query", (str,), None),
            threshold=threshold,
            sample_size=sample_size,
            session_id=_take(payload, "session_id", (str,), None),
        )


@dataclass(frozen=True)
class QueryAccepted:
    """The session the gateway opened for a :class:`QueryRequest`."""

    session_id: str
    query: str

    def to_wire(self) -> Dict[str, Any]:
        return _stamp({"session_id": self.session_id, "query": self.query})

    @classmethod
    def from_wire(cls, payload: Any) -> "QueryAccepted":
        payload = check_version(payload)
        return cls(
            session_id=_take(payload, "session_id", (str,)),
            query=_take(payload, "query", (str,)),
        )


# ----------------------------------------------------------------- questions


@dataclass(frozen=True)
class QuestionDTO:
    """One dispatched crowd question.

    ``facts`` is the concrete fact-set as sorted name triples
    ``[subject, relation, object]`` — the same wire form the shard
    protocol uses; a client rebuilds it with
    ``FactSet(tuple(t) for t in facts)``.  ``deadline_s`` is the seconds
    the member has left before the question is reaped and retried.
    """

    qid: str
    session_id: str
    text: str
    facts: Tuple[Tuple[str, str, str], ...]
    deadline_s: float
    attempt: int

    def to_wire(self) -> Dict[str, Any]:
        return _stamp(
            {
                "qid": self.qid,
                "session_id": self.session_id,
                "text": self.text,
                "facts": [list(triple) for triple in self.facts],
                "deadline_s": self.deadline_s,
                "attempt": self.attempt,
            }
        )

    @classmethod
    def from_wire(cls, payload: Any) -> "QuestionDTO":
        payload = check_version(payload)
        raw = _take(payload, "facts", (list,))
        facts: List[Tuple[str, str, str]] = []
        for triple in raw:
            if not (
                isinstance(triple, list)
                and len(triple) == 3
                and all(isinstance(part, str) and part for part in triple)
            ):
                raise SchemaError(
                    "field 'facts' must be a list of [subject, relation, "
                    f"object] non-empty string triples, got {triple!r}"
                )
            facts.append((triple[0], triple[1], triple[2]))
        return cls(
            qid=_take(payload, "qid", (str,)),
            session_id=_take(payload, "session_id", (str,)),
            text=_take(payload, "text", (str,)),
            facts=tuple(facts),
            deadline_s=float(_take(payload, "deadline_s", (int, float))),
            attempt=_take(payload, "attempt", (int,), 1),
        )


@dataclass(frozen=True)
class QuestionBatch:
    """``GET /next``: the questions a long-poll came back with.

    An empty batch is a *normal* response: the poll timed out idle, and
    the member should poll again after ``retry_after_s``.
    """

    questions: Tuple[QuestionDTO, ...] = ()
    retry_after_s: float = 0.0

    def to_wire(self) -> Dict[str, Any]:
        return _stamp(
            {
                "questions": [q.to_wire() for q in self.questions],
                "retry_after_s": self.retry_after_s,
            }
        )

    @classmethod
    def from_wire(cls, payload: Any) -> "QuestionBatch":
        payload = check_version(payload)
        raw = _take(payload, "questions", (list,), [])
        return cls(
            questions=tuple(QuestionDTO.from_wire(q) for q in raw),
            retry_after_s=float(
                _take(payload, "retry_after_s", (int, float), 0.0)
            ),
        )


# ------------------------------------------------------------------- answers


@dataclass(frozen=True)
class AnswerRequest:
    """``POST /answer``: ``support=None`` is an explicit pass.

    ``idempotency_key`` is a client-minted opaque string, stable across
    the retries of *one* submit: a gateway that already journaled an
    answer under the key returns the recorded outcome without applying
    the answer again — exactly-once even across a gateway restart.
    ``deadline_s`` propagates the client's remaining retry budget so a
    recovering server can shed work the client will no longer wait for.
    Both fields are additive (absent = PR 8 behavior), so no version
    bump.
    """

    qid: str
    support: Optional[float] = None
    idempotency_key: Optional[str] = None
    deadline_s: Optional[float] = None

    def to_wire(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"qid": self.qid, "support": self.support}
        if self.idempotency_key is not None:
            body["idempotency_key"] = self.idempotency_key
        if self.deadline_s is not None:
            body["deadline_s"] = self.deadline_s
        return _stamp(body)

    @classmethod
    def from_wire(cls, payload: Any) -> "AnswerRequest":
        payload = check_version(payload)
        support = _take(payload, "support", (int, float), None)
        deadline = _take(payload, "deadline_s", (int, float), None)
        return cls(
            qid=_take(payload, "qid", (str,)),
            support=None if support is None else float(support),
            idempotency_key=_take(payload, "idempotency_key", (str,), None),
            deadline_s=None if deadline is None else float(deadline),
        )


@dataclass(frozen=True)
class AnswerResponse:
    """The queue outcome: recorded / passed / stale / rejected / pruned."""

    qid: str
    outcome: str

    def to_wire(self) -> Dict[str, Any]:
        return _stamp({"qid": self.qid, "outcome": self.outcome})

    @classmethod
    def from_wire(cls, payload: Any) -> "AnswerResponse":
        payload = check_version(payload)
        return cls(
            qid=_take(payload, "qid", (str,)),
            outcome=_take(payload, "outcome", (str,)),
        )


# ------------------------------------------------------------------- results


@dataclass(frozen=True)
class ResultResponse:
    """``GET /result``: the session's incremental MSP set.

    Polling this endpoint streams progress: ``msps`` grows as the crowd
    classifies the lattice and ``done`` flips when the session settles.
    MSPs travel as their canonical ``repr`` strings — the exact strings
    the serial-identity oracle compares.
    """

    session_id: str
    state: str
    done: bool
    questions_asked: int
    msps: Tuple[str, ...]
    valid_msps: Tuple[str, ...]

    def to_wire(self) -> Dict[str, Any]:
        return _stamp(
            {
                "session_id": self.session_id,
                "state": self.state,
                "done": self.done,
                "questions_asked": self.questions_asked,
                "msps": list(self.msps),
                "valid_msps": list(self.valid_msps),
            }
        )

    @classmethod
    def from_wire(cls, payload: Any) -> "ResultResponse":
        payload = check_version(payload)
        msps = _take(payload, "msps", (list,), [])
        valid = _take(payload, "valid_msps", (list,), [])
        for collection in (msps, valid):
            if not all(isinstance(item, str) for item in collection):
                raise SchemaError("MSP lists must contain strings")
        return cls(
            session_id=_take(payload, "session_id", (str,)),
            state=_take(payload, "state", (str,)),
            done=_take(payload, "done", (bool,)),
            questions_asked=_take(payload, "questions_asked", (int,), 0),
            msps=tuple(msps),
            valid_msps=tuple(valid),
        )


# -------------------------------------------------------------------- errors


@dataclass(frozen=True)
class ErrorResponse:
    """Every non-2xx body: a machine-readable ``error`` plus detail.

    A 429 (backpressure) carries ``retry_after_s`` — the server's own
    estimate of when retrying is worth it; retrying clients honor it
    uniformly across endpoints instead of guessing (additive field, no
    version bump).
    """

    error: str
    detail: str = ""
    retry_after_s: Optional[float] = None

    def to_wire(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"error": self.error, "detail": self.detail}
        if self.retry_after_s is not None:
            body["retry_after_s"] = self.retry_after_s
        return _stamp(body)

    @classmethod
    def from_wire(cls, payload: Any) -> "ErrorResponse":
        payload = check_version(payload)
        retry_after = _take(payload, "retry_after_s", (int, float), None)
        return cls(
            error=_take(payload, "error", (str,)),
            detail=_take(payload, "detail", (str,), ""),
            retry_after_s=None if retry_after is None else float(retry_after),
        )


# ------------------------------------------------------------- fact helpers


def facts_to_wire(fact_set: Any) -> Tuple[Tuple[str, str, str], ...]:
    """A :class:`~repro.ontology.facts.FactSet` as sorted name triples."""
    return tuple(
        (fact.subject.name, fact.relation.name, fact.obj.name)
        for fact in sorted(fact_set)
    )


def facts_from_wire(triples: Sequence[Sequence[str]]) -> Any:
    """Rebuild a :class:`~repro.ontology.facts.FactSet` from name triples."""
    from ..ontology.facts import FactSet

    return FactSet(tuple(triple) for triple in triples)


__all__ = [
    "SCHEMA_VERSION",
    "ActivateRequest",
    "ActivateResponse",
    "AnswerRequest",
    "AnswerResponse",
    "DatasetList",
    "ErrorResponse",
    "JoinRequest",
    "JoinResponse",
    "QueryAccepted",
    "QueryRequest",
    "QuestionBatch",
    "QuestionDTO",
    "ResultResponse",
    "SchemaError",
    "check_version",
    "facts_from_wire",
    "facts_to_wire",
]
