"""GatewayApp: the transport-independent core of the crowd gateway.

One :class:`GatewayApp` owns the full serving state — the dataset
registry, the active :class:`~repro.engine.engine.OassisEngine` +
:class:`~repro.service.manager.SessionManager` pair, per-member auth
tokens and the qid ledger mapping wire question ids back to live
:class:`~repro.service.manager.DispatchedQuestion` objects.  Both
transports drive it: the asyncio HTTP server (:mod:`repro.gateway.http`)
and the MCP tool surface (:mod:`repro.gateway.mcp`) are thin adapters
that decode a wire DTO, call one method here and encode the result.

Methods raise :class:`GatewayError` subclasses carrying an HTTP status;
the transports map them to 4xx responses (never a 500 — an unhandled
exception is the only thing that becomes a server error).

Threading: the app is not locked.  The HTTP server calls it only from
its event loop, and :class:`repro.api.Client` only from its caller's
thread; one thread owns the app, its :class:`SessionManager` and the
journal order (see ``docs/SERVICE.md``).

Durability (see ``docs/RELIABILITY.md``): constructed with a
``journal_path``, the app write-ahead-logs every state transition
through :class:`~repro.gateway.journal.GatewayJournal` with an
**apply → journal → acknowledge** discipline — the journal and the
in-memory state die together in a crash, so anything a client saw
acknowledged is in the journal, and anything that is not journaled was
never acknowledged and will be retried by the client.  A fresh app on
the same path restores the active dataset, member tokens, sessions
(answers replayed through the PR 5 lattice-resolve + resume machinery),
the qid mint ledger and the idempotency map before serving.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from ..crowd.cache import CrowdCache
from ..crowd.journal import JournalRecord
from ..engine.engine import OassisEngine
from ..faults.plan import FaultPlan
from ..observability import count as _obs_count, span as _obs_span
from ..service.manager import DispatchedQuestion, SessionManager
from ..service.recovery import resolve_journal
from ..service.simulation import DOMAINS
from .journal import GatewayJournal, GatewayLogState, replay_gateway_journal
from .schema import (
    ActivateResponse,
    AnswerResponse,
    DatasetList,
    JoinResponse,
    QueryAccepted,
    QueryRequest,
    QuestionBatch,
    QuestionDTO,
    ResultResponse,
    facts_to_wire,
)


class GatewayError(Exception):
    """A client-attributable failure; ``status`` is the HTTP code."""

    status = 400
    error = "bad_request"

    def __init__(self, detail: str) -> None:
        super().__init__(detail)
        self.detail = detail


class AuthError(GatewayError):
    status = 401
    error = "unauthorized"


class ForbiddenError(GatewayError):
    status = 403
    error = "forbidden"


class NotFoundError(GatewayError):
    status = 404
    error = "not_found"


class ConflictError(GatewayError):
    status = 409
    error = "conflict"


class BackpressureError(GatewayError):
    """The member is at their cross-session in-flight cap (HTTP 429)."""

    status = 429
    error = "backpressure"


@dataclass(frozen=True)
class GatewayConfig:
    """Serving knobs for one gateway (see ``docs/GATEWAY.md``).

    The session-layer fields are forwarded verbatim to
    :class:`~repro.service.config.ServiceConfig`; the long-poll fields
    shape the HTTP ``/next`` endpoint (``long_poll_max_wait`` caps the
    client-requested wait, ``poll_interval`` is the idle re-check
    cadence) and ``slow_client_delay`` is the stall injected by a
    ``SLOW_CLIENT`` fault.
    """

    question_timeout: float = 5.0
    max_attempts: int = 3
    backoff_base: float = 0.01
    in_flight_limit: int = 4
    batch_size: int = 2
    long_poll_max_wait: float = 10.0
    poll_interval: float = 0.005
    slow_client_delay: float = 0.05


@dataclass
class _MemberRecord:
    member_id: str
    token: str


class GatewayApp:
    """The gateway's application state: datasets, sessions, members, qids."""

    def __init__(
        self,
        *,
        config: Optional[GatewayConfig] = None,
        datasets: Optional[Mapping[str, Callable[[], object]]] = None,
        admin_token: Optional[str] = None,
        faults: Optional[FaultPlan] = None,
        token_factory: Optional[Callable[[], str]] = None,
        journal_path: Optional["os.PathLike[str] | str"] = None,
        journal_fsync: bool = False,
    ) -> None:
        self.config = config if config is not None else GatewayConfig()
        self.datasets: Dict[str, Callable[[], object]] = dict(
            datasets if datasets is not None else DOMAINS
        )
        #: when set, ``/query``, ``/result`` and ``/datasets/activate``
        #: require it as the bearer token (None = open gateway)
        self.admin_token = admin_token
        #: consulted by the transports at the ``gateway.request`` site
        self.faults = faults
        self._mint = token_factory if token_factory is not None else (
            lambda: secrets.token_hex(16)
        )
        self._active: Optional[str] = None
        self._dataset: Optional[object] = None
        self._engine: Optional[OassisEngine] = None
        self._manager: Optional[SessionManager] = None
        self._members_by_token: Dict[str, _MemberRecord] = {}
        self._members_by_id: Dict[str, _MemberRecord] = {}
        self._sessions: Set[str] = set()
        self._questions: Dict[str, DispatchedQuestion] = {}
        self._answered: Dict[str, str] = {}  # qid -> first outcome
        #: idempotency key -> (qid, outcome) for exactly-once retries
        self._idempotency: Dict[str, Tuple[str, str]] = {}
        #: pre-crash qids restored from the journal's mint ledger:
        #: qid -> (session_id, assignment key, member_id)
        self._minted: Dict[str, Tuple[str, str, str]] = {}
        self._next_qid = 0
        self._next_session = 0
        self.journal: Optional[GatewayJournal] = None
        #: restore statistics when this app came up from a journal
        self.restored: Optional[Dict[str, int]] = None
        if journal_path is not None:
            path = str(journal_path)
            state: Optional[GatewayLogState] = None
            if os.path.exists(path) and os.path.getsize(path) > 0:
                state = replay_gateway_journal(path)
            self.journal = GatewayJournal(path, fsync=journal_fsync)
            if state is not None and state.dataset is not None:
                self._restore(state)

    # ----------------------------------------------------------------- restore

    def _restore(self, state: GatewayLogState) -> None:
        """Rebuild the serving state a journal describes (crash recovery).

        Mirrors ``activate_dataset`` + PR 5's ``restore_session``: the
        dataset's engine/manager pair is rebuilt, members re-attach with
        their *original* tokens, and each session is re-created with its
        journaled answers resolved onto the fresh lattice (``resume=True``
        so acknowledged answers are never re-asked).  A session whose
        query no longer parses is skipped and counted rather than fatal —
        a stale journal must not brick the gateway.
        """
        name = state.dataset
        if name is None or name not in self.datasets:
            raise RuntimeError(
                f"gateway journal names unknown dataset {name!r}; "
                f"registered: {sorted(self.datasets)}"
            )
        with _obs_span("gateway.restore"):
            dataset = self.datasets[name]()
            engine = OassisEngine(dataset.ontology)  # type: ignore[attr-defined]
            cfg = self.config
            manager = engine.session_manager(
                question_timeout=cfg.question_timeout,
                max_attempts=cfg.max_attempts,
                backoff_base=cfg.backoff_base,
                in_flight_limit=cfg.in_flight_limit,
                batch_size=cfg.batch_size,
            )
            for member_id, token in state.members.items():
                record = _MemberRecord(member_id=member_id, token=token)
                self._members_by_token[token] = record
                self._members_by_id[member_id] = record
                manager.attach_member(member_id)
            answers_restored = 0
            sessions_restored = 0
            failures = 0
            for session_id, (query_text, sample_size) in state.sessions.items():
                try:
                    parsed = engine._as_query(query_text)
                    space = engine.build_space(parsed)
                    records = [
                        JournalRecord(
                            key=answer["key"],
                            member=answer["member"],
                            support=answer["support"],
                        )
                        for answer in state.session_answers(session_id)
                    ]
                    resolved, _unresolved = resolve_journal(
                        space, parsed.threshold, records
                    )
                    cache = CrowdCache()
                    for assignment, answers in resolved.items():
                        for member_id, support in answers:
                            cache.record(assignment, member_id, support)
                    manager.create_session(
                        query_text,
                        session_id=session_id,
                        cache=cache,
                        resume=True,
                        sample_size=sample_size,
                    )
                except Exception:
                    # counted, not fatal: one unrecoverable session must
                    # not take down the survivors
                    failures += 1
                    _obs_count("gateway.journal.restore_failures")
                    continue
                answers_restored += sum(len(a) for a in resolved.values())
                sessions_restored += 1
                self._sessions.add(session_id)
            self._active = name
            self._dataset = dataset
            self._engine = engine
            self._manager = manager
            self._answered = dict(state.answered)
            self._idempotency = dict(state.idempotency)
            self._minted = dict(state.mints)
            self._next_qid = state.max_qid_ordinal()
            self._next_session = state.max_session_ordinal()
            self.restored = {
                "sessions": sessions_restored,
                "members": len(state.members),
                "answers": answers_restored,
                "corrupt": state.corrupt,
                "failures": failures,
            }
        _obs_count("gateway.journal.restores")

    def close(self) -> None:
        """Release the journal handle (safe to call repeatedly)."""
        if self.journal is not None:
            self.journal.close()

    # ---------------------------------------------------------------- health

    @property
    def active_dataset(self) -> Optional[str]:
        return self._active

    @property
    def engine(self) -> Optional[OassisEngine]:
        """The active dataset's engine (None before activation)."""
        return self._engine

    # -------------------------------------------------------------- datasets

    def list_datasets(self) -> DatasetList:
        return DatasetList(
            datasets=tuple(sorted(self.datasets)), active=self._active
        )

    def activate_dataset(self, name: str) -> ActivateResponse:
        """Build the engine + session manager for ``name``.

        Idempotent for the already-active dataset; switching datasets
        while sessions are open is a conflict (cancel them first) —
        an activation tears down all member/session/qid state.
        """
        if name not in self.datasets:
            raise NotFoundError(
                f"unknown dataset {name!r}; pick from {sorted(self.datasets)}"
            )
        if self._active == name:
            return ActivateResponse(name=name, activated=False)
        manager = self._manager
        if manager is not None and any(s.open for s in manager.sessions()):
            raise ConflictError(
                "cannot switch datasets while sessions are open; "
                "finish or cancel them first"
            )
        dataset = self.datasets[name]()
        engine = OassisEngine(dataset.ontology)  # type: ignore[attr-defined]
        cfg = self.config
        fresh = engine.session_manager(
            question_timeout=cfg.question_timeout,
            max_attempts=cfg.max_attempts,
            backoff_base=cfg.backoff_base,
            in_flight_limit=cfg.in_flight_limit,
            batch_size=cfg.batch_size,
        )
        self._active = name
        self._dataset = dataset
        self._engine = engine
        self._manager = fresh
        self._members_by_token.clear()
        self._members_by_id.clear()
        self._sessions.clear()
        self._questions.clear()
        self._answered.clear()
        self._idempotency.clear()
        self._minted.clear()
        if self.journal is not None:
            self.journal.log_activate(name)
        _obs_count("gateway.datasets.activated")
        return ActivateResponse(name=name, activated=True)

    def _require_manager(self) -> SessionManager:
        manager = self._manager
        if manager is None:
            raise ConflictError(
                "no dataset is active; POST /datasets/activate first"
            )
        return manager

    # ------------------------------------------------------------------ auth

    def require_admin(self, token: Optional[str]) -> None:
        """Operator endpoints: a wrong or missing admin token is a 401."""
        if self.admin_token is None:
            return
        if token != self.admin_token:
            _obs_count("gateway.auth.rejected")
            raise AuthError("admin token required")

    def authenticate(self, token: Optional[str]) -> str:
        """The member id a bearer token identifies; 401 otherwise."""
        if token:
            record = self._members_by_token.get(token)
            if record is not None:
                return record.member_id
        _obs_count("gateway.auth.rejected")
        raise AuthError("a member bearer token is required; POST /join first")

    # --------------------------------------------------------------- members

    def join(self, member_id: Optional[str] = None) -> JoinResponse:
        """Attach a member and mint their bearer token.

        Re-joining an existing ``member_id`` is idempotent and returns
        the original token (the retry after an injected disconnect must
        not lock the member out of their own identity).
        """
        manager = self._require_manager()
        if member_id is not None and member_id in self._members_by_id:
            record = self._members_by_id[member_id]
            return JoinResponse(
                member_id=record.member_id, token=record.token
            )
        if member_id is None:
            # the next free w<n>: a journal replay or a chaos seed mints
            # the same ids (the bearer token stays random)
            number = len(self._members_by_id) + 1
            while f"w{number}" in self._members_by_id:
                number += 1
            member_id = f"w{number}"
        record = _MemberRecord(member_id=member_id, token=self._mint())
        self._members_by_token[record.token] = record
        self._members_by_id[member_id] = record
        manager.attach_member(member_id)
        if self.journal is not None:
            self.journal.log_join(record.member_id, record.token)
        _obs_count("gateway.members.joined")
        return JoinResponse(member_id=record.member_id, token=record.token)

    # --------------------------------------------------------------- queries

    def pose_query(self, request: QueryRequest) -> QueryAccepted:
        """Open a mining session from a :class:`QueryRequest`."""
        manager = self._require_manager()
        dataset = self._dataset
        text = request.query
        if text is None:
            if dataset is None or not hasattr(dataset, "query"):
                raise ConflictError(
                    "no query text given and the active dataset has no "
                    "query template"
                )
            text = dataset.query(request.threshold)  # type: ignore[attr-defined]
        session_id = request.session_id
        if session_id is None:
            self._next_session += 1
            session_id = f"g{self._next_session}"
        if session_id in self._sessions:
            raise ConflictError(f"session {session_id!r} already exists")
        try:
            manager.create_session(
                text, session_id=session_id, sample_size=request.sample_size
            )
        except Exception as error:
            # a query that fails to lex, parse or validate is a client error
            raise GatewayError(f"query rejected: {error}") from error
        self._sessions.add(session_id)
        if self.journal is not None:
            self.journal.log_query(session_id, text, request.sample_size)
        _obs_count("gateway.queries.posed")
        return QueryAccepted(session_id=session_id, query=text)

    # ------------------------------------------------------------- questions

    def at_capacity(self, member_id: str) -> bool:
        """Is the member at their cross-session in-flight cap?

        The gateway's backpressure reuses the session layer's limit: a
        member holding ``in_flight_limit`` questions gets HTTP 429 from
        ``/next`` instead of an idle long-poll they cannot benefit from.
        """
        manager = self._require_manager()
        held = sum(
            1 for question in manager.in_flight() if question.member_id == member_id
        )
        return held >= self.config.in_flight_limit

    def next_questions(self, member_id: str, k: Optional[int] = None) -> QuestionBatch:
        """One non-waiting dispatch attempt (the long-poll loops on this)."""
        manager = self._require_manager()
        try:
            batch = manager.next_batch(member_id, k)
        except KeyError as error:
            raise ForbiddenError(str(error)) from error
        now = manager.clock()
        questions: List[QuestionDTO] = []
        mints: List[Tuple[str, str, str, str]] = []
        for dispatched in batch:
            self._next_qid += 1
            qid = f"q{self._next_qid}"
            self._questions[qid] = dispatched
            facts: Tuple[Tuple[str, str, str], ...] = ()
            if dispatched.fact_set is not None:
                facts = facts_to_wire(dispatched.fact_set)
            mints.append(
                (
                    qid,
                    dispatched.session_id,
                    repr(dispatched.assignment),
                    dispatched.member_id,
                )
            )
            questions.append(
                QuestionDTO(
                    qid=qid,
                    session_id=dispatched.session_id,
                    text=dispatched.text,
                    facts=facts,
                    deadline_s=max(0.0, dispatched.deadline - now),
                    attempt=dispatched.attempt,
                )
            )
        if self.journal is not None and mints:
            self.journal.log_mint(mints)
        return QuestionBatch(questions=tuple(questions))

    # --------------------------------------------------------------- answers

    def submit_answer(
        self,
        member_id: str,
        qid: str,
        support: Optional[float],
        *,
        idempotency_key: Optional[str] = None,
    ) -> AnswerResponse:
        """Feed one answer to the session layer; duplicates are idempotent.

        A re-submission of an already-answered qid comes back ``stale``
        (the session layer drops the second application), so a client
        that retries after a dropped connection cannot double-count.

        ``idempotency_key`` makes the idempotence survive a gateway
        restart: the first application's outcome is journaled under the
        key, and any retry — to this process or to a restored successor —
        returns the stored outcome without touching the session layer.
        A qid minted by a *previous* incarnation (present in the restored
        mint ledger but with no live dispatch) also resolves ``stale``
        rather than 404: the session layer re-dispatches that node, so
        the late answer is merely obsolete, not unknown.
        """
        manager = self._require_manager()
        if idempotency_key is not None:
            hit = self._idempotency.get(idempotency_key)
            if hit is not None:
                _obs_count("gateway.answers.deduped")
                return AnswerResponse(qid=hit[0], outcome=hit[1])
        dispatched = self._questions.get(qid)
        already = self._answered.get(qid)
        minted = self._minted.get(qid)
        if dispatched is None:
            if minted is None and already is None:
                raise NotFoundError(f"unknown question id {qid!r}")
            # pre-crash qid: the live dispatch died with the previous
            # process; its node is re-dispatched by the session layer
            name = already if already is not None else "stale"
            _obs_count("gateway.answers.duplicate")
            if idempotency_key is not None:
                self._idempotency[idempotency_key] = (qid, name)
            return AnswerResponse(qid=qid, outcome=name)
        if dispatched.member_id != member_id:
            _obs_count("gateway.auth.rejected")
            raise ForbiddenError(
                f"question {qid} was dispatched to another member"
            )
        outcome = manager.submit(dispatched, support)
        name = outcome.name.lower()
        if already is not None:
            _obs_count("gateway.answers.duplicate")
        elif name in ("recorded", "passed"):
            _obs_count("gateway.answers.accepted")
        if already is None:
            self._answered[qid] = name
        if idempotency_key is not None:
            self._idempotency[idempotency_key] = (qid, name)
        if (
            self.journal is not None
            and already is None
            and name in ("recorded", "passed")
        ):
            self.journal.log_answer(
                qid=qid,
                session_id=dispatched.session_id,
                key=repr(dispatched.assignment),
                member_id=member_id,
                support=support,
                outcome=name,
                idempotency_key=idempotency_key,
            )
        return AnswerResponse(qid=qid, outcome=name)

    # --------------------------------------------------------------- results

    def result(self, session_id: str) -> ResultResponse:
        """The session's incremental MSP set (poll until ``done``)."""
        manager = self._require_manager()
        if session_id not in self._sessions:
            raise NotFoundError(f"unknown session {session_id!r}")
        manager.all_done()  # probe completion before reporting
        session = manager.session(session_id)
        msps = tuple(sorted(repr(a) for a in session.msps()))
        valid = tuple(sorted(repr(a) for a in session.valid_msps()))
        _obs_count("gateway.results.served")
        return ResultResponse(
            session_id=session_id,
            state=session.state.value,
            done=not session.open,
            # a session restored from the journal counts the answers it
            # was rebuilt from: a restart does not lower the crowd cost
            questions_asked=session.questions_asked() + session.resumed_answers,
            msps=msps,
            valid_msps=valid,
        )

    def session_ids(self) -> List[str]:
        return sorted(self._sessions)

    def all_done(self) -> bool:
        """Are all posed sessions settled?"""
        manager = self._require_manager()
        return manager.all_done()
