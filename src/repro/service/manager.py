"""SessionManager: many concurrent query sessions, one shared crowd.

The serving counterpart of the batch engine: where
:meth:`~repro.engine.engine.OassisEngine.execute` drives a fixed crowd
through one query to completion, a :class:`SessionManager` hosts many
:class:`~repro.service.session.QuerySession` instances at once and
multiplexes a changing pool of crowd members across them —

* **batched dispatch** — :meth:`next_batch` hands a member up to ``k``
  questions, drawn round-robin across their open sessions, bounded by the
  member's cross-session in-flight limit;
* **deadlines and retries** — every dispatched question carries a
  deadline; :meth:`reap_expired` requeues overdue questions with
  exponential backoff and, once ``max_attempts`` is exhausted, abandons
  the node for that member and reassigns it to another;
* **departures** — :meth:`detach_member` reassigns the questions the
  member held and releases their per-session traversal structures;
  sessions degrade gracefully (a session with nobody left to ask
  completes with whatever was classified);
* **lifecycle** — :meth:`create_session` (optionally resuming from a
  cache snapshot), :meth:`cancel_session`, :meth:`snapshot`.

The in-flight table is the one record of which member holds which
node: a session's :class:`~repro.engine.queue_manager.QueueManager` only
pops nodes and takes answers.

One thread owns all of this state (see ``docs/SERVICE.md``): the
in-process :class:`~repro.service.runner.ServiceRunner` loop, or the
gateway's event loop.  Nothing here is locked.

Everything here emits ``service.*`` counters and spans; see
``docs/OBSERVABILITY.md`` and :func:`repro.observability.derive_service`.
"""

from __future__ import annotations

import math
import time
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from ..assignments.assignment import Assignment
from ..crowd.cache import CrowdCache
from ..engine.queue_manager import AnswerOutcome
from ..faults.breaker import BreakerState, CircuitBreaker
from ..faults.plan import FaultKind, FaultPlan
from ..oassisql.ast import Query
from ..observability import count as _obs_count, span as _obs_span
from ..ontology.facts import Fact, FactSet
from ..vocabulary.terms import Term
from .config import ServiceConfig
from .session import QuerySession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.engine import OassisEngine

#: identifies one dispatched question: (session_id, member_id, assignment)
DispatchKey = Tuple[str, str, Assignment]


class DispatchedQuestion:
    """A question handed to a member by the service, with its deadline."""

    __slots__ = (
        "session_id",
        "member_id",
        "assignment",
        "fact_set",
        "attempt",
        "issued_at",
        "deadline",
    )

    def __init__(
        self,
        session_id: str,
        member_id: str,
        assignment: Assignment,
        fact_set: FactSet,
        attempt: int,
        issued_at: float,
        deadline: float,
    ) -> None:
        self.session_id = session_id
        self.member_id = member_id
        self.assignment = assignment
        self.fact_set = fact_set
        self.attempt = attempt
        self.issued_at = issued_at
        self.deadline = deadline

    @property
    def key(self) -> DispatchKey:
        return (self.session_id, self.member_id, self.assignment)

    def __repr__(self) -> str:
        return (
            f"DispatchedQuestion({self.session_id!r}, {self.member_id!r}, "
            f"{self.assignment!r}, attempt={self.attempt})"
        )


class SessionManager:
    """Hosts concurrent query sessions over one engine's ontology."""

    def __init__(
        self,
        engine: "OassisEngine",
        *,
        config: Optional[ServiceConfig] = None,
        clock: Optional[Callable[[], float]] = None,
        faults: Optional[FaultPlan] = None,
        **overrides: object,
    ) -> None:
        self.engine = engine
        base = config if config is not None else ServiceConfig()
        self.config = base.override(**overrides) if overrides else base
        self.clock = clock if clock is not None else time.monotonic
        #: the fault-injection plan consulted at ``manager.*`` sites
        #: (None = production: the sites cost one pointer check)
        self.faults = faults
        self._sessions: Dict[str, QuerySession] = {}
        self._members: List[str] = []
        self._in_flight: Dict[DispatchKey, DispatchedQuestion] = {}
        self._backoff: Dict[DispatchKey, float] = {}  # key -> not-before
        self._attempts: Dict[DispatchKey, int] = {}
        self._cursor: Dict[str, int] = {}  # member -> round-robin position
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._next_id = 0

    # ------------------------------------------------------------- sessions

    def create_session(
        self,
        query: Union[str, Query],
        *,
        session_id: Optional[str] = None,
        cache: Optional[CrowdCache] = None,
        resume: bool = False,
        sample_size: Optional[int] = None,
        more_pool: Iterable[Fact] = (),
        include_invalid: bool = False,
    ) -> QuerySession:
        """Open a session for ``query`` and register the attached members.

        With ``resume=True`` the given ``cache`` (a prior session's
        :meth:`~QuerySession.snapshot` or live cache) is preloaded: the
        aggregator verdicts of the previous run are reconstructed and
        attached members continue from the cached frontier instead of
        re-answering.
        """
        if session_id is None:
            self._next_id += 1
            session_id = f"s{self._next_id}"
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} already exists")
        store = cache if cache is not None else CrowdCache()
        parsed = self.engine._as_query(query)
        queue = self.engine.queue_manager(
            parsed, sample_size=sample_size, cache=store, more_pool=more_pool
        )
        session = QuerySession(
            session_id,
            parsed,
            queue,
            store,
            include_invalid=include_invalid,
            query_text=query if isinstance(query, str) else None,
            sample_size=sample_size,
        )
        if resume:
            session.resume_from_cache()
            _obs_count("service.sessions.resumed")
        else:
            _obs_count("service.sessions.created")
        for member_id in self._members:
            session.ensure_member(member_id)
        self._sessions[session_id] = session
        return session

    def session(self, session_id: str) -> QuerySession:
        return self._sessions[session_id]

    def sessions(self) -> List[QuerySession]:
        return list(self._sessions.values())

    def cancel_session(self, session_id: str) -> bool:
        """Stop a session; its in-flight and backoff entries are dropped."""
        session = self._sessions.get(session_id)
        self._drop_keys(lambda key: key[0] == session_id)
        if session is None or not session.cancel():
            return False
        _obs_count("service.sessions.cancelled")
        return True

    def snapshot(self, session_id: str) -> CrowdCache:
        """A resumable copy of the session's collected answers."""
        return self.session(session_id).snapshot()

    # -------------------------------------------------------------- members

    def attach_member(self, member_id: str) -> bool:
        """Make ``member_id`` available to every open session (idempotent)."""
        if member_id in self._members:
            return False
        self._members.append(member_id)
        if self.config.breaker_window > 0 and member_id not in self._breakers:
            self._breakers[member_id] = CircuitBreaker(
                window=self.config.breaker_window,
                failure_threshold=self.config.breaker_failure_threshold,
                cooldown=self.config.breaker_cooldown,
                min_events=self.config.breaker_min_events,
            )
        for session in self._sessions.values():
            if session.open:
                session.ensure_member(member_id)
        _obs_count("service.members.attached")
        return True

    def detach_member(self, member_id: str) -> int:
        """Handle a departure; returns how many nodes were reassigned.

        Each node the member held is abandoned and reassigned once to
        another attached member; their traversal structures are released
        in every session (the leak fix — see
        :meth:`repro.engine.queue_manager.QueueManager.detach_member`).
        """
        if member_id not in self._members:
            return 0
        self._members.remove(member_id)
        self._cursor.pop(member_id, None)
        self._breakers.pop(member_id, None)
        dropped = self._drop_keys(lambda key: key[1] == member_id)
        sessions = [s for s in self._sessions.values() if s.open]
        _obs_count("service.members.departed")
        held: Dict[str, List[Assignment]] = {}
        for key in dropped:
            held.setdefault(key[0], []).append(key[2])
        reassigned = 0
        for session in sessions:
            session.detach(member_id)
            for node in held.get(session.session_id, ()):
                if self._reassign(session, node, exclude_member=member_id):
                    reassigned += 1
            self._maybe_complete(session)
        return reassigned

    def members(self) -> List[str]:
        return list(self._members)

    # ------------------------------------------------------------- dispatch

    def next_batch(self, member_id: str, k: Optional[int] = None) -> List[DispatchedQuestion]:
        """Up to ``k`` questions for ``member_id``, round-robin over sessions.

        Honors the member's cross-session in-flight limit and skips nodes
        whose retry backoff window has not elapsed.  Returns ``[]`` when
        the member has nothing to do right now (everything dry, in
        backoff, or at the in-flight cap).
        """
        self.reap_expired()
        now = self.clock()
        if (
            self.faults is not None
            and self.faults.decide("manager.dispatch", member_id)
            is FaultKind.TIMEOUT
        ):
            # injected dispatch stall: the member gets nothing this round
            return []
        if member_id not in self._members:
            raise KeyError(f"member {member_id!r} is not attached")
        breaker = self._breakers.get(member_id)
        if breaker is not None and not breaker.allow(now):
            _obs_count("recovery.breaker.short_circuited")
            return []
        held = sum(1 for key in self._in_flight if key[1] == member_id)
        want = min(
            k if k is not None else self.config.batch_size,
            self.config.in_flight_limit - held,
        )
        if breaker is not None and breaker.state is BreakerState.HALF_OPEN:
            want = min(want, 1)  # a single probe decides the next state
        sessions = [s for s in self._sessions.values() if s.open]
        if want <= 0 or not sessions:
            if breaker is not None:
                breaker.probe_aborted()
            return []
        start = self._cursor.get(member_id, 0) % len(sessions)
        self._cursor[member_id] = start + 1
        order = sessions[start:] + sessions[:start]
        # nodes of this member still inside a backoff window, per session
        deferred: Dict[str, List[Assignment]] = {}
        for key, not_before in self._backoff.items():
            if key[1] == member_id and not_before > now:
                deferred.setdefault(key[0], []).append(key[2])
        batch: List[DispatchedQuestion] = []
        with _obs_span("service.dispatch"):
            progress = True
            while len(batch) < want and progress:
                progress = False
                for session in order:
                    if len(batch) >= want:
                        break
                    fresh = session.next_fresh(
                        member_id, 1, exclude=deferred.get(session.session_id, ())
                    )
                    for node in fresh:
                        progress = True
                        batch.append(self._issue(session, member_id, node, now))
        if batch:
            _obs_count("service.questions.dispatched", len(batch))
        elif breaker is not None:
            breaker.probe_aborted()
        return batch

    def _issue(
        self, session: QuerySession, member_id: str, node: Assignment, now: float
    ) -> DispatchedQuestion:
        key = (session.session_id, member_id, node)
        attempt = self._attempts.get(key, 0) + 1
        self._attempts[key] = attempt
        self._backoff.pop(key, None)
        # the n-th question a member holds cannot even be looked at
        # before the n-1 ahead of it are answered; its clock gets n
        # timeout windows, not one (see ServiceConfig.question_timeout)
        position = 1 + sum(1 for held in self._in_flight if held[1] == member_id)
        dispatched = DispatchedQuestion(
            session.session_id,
            member_id,
            node,
            session.queue.space.instantiate(node),
            attempt=attempt,
            issued_at=now,
            deadline=now + position * self.config.question_timeout,
        )
        self._in_flight[key] = dispatched
        return dispatched

    # --------------------------------------------------------------- answers

    def submit(
        self, question: DispatchedQuestion, support: Optional[float]
    ) -> AnswerOutcome:
        """Record a member's answer to a dispatched question.

        ``support=None`` means the member explicitly passed: the node stays
        visited and unanswered for them (:class:`AnswerOutcome.PASSED`).
        Answers for questions no longer in flight — reaped and reassigned
        while the member dawdled — are dropped as ``STALE``.  An out-of-range or
        non-finite support fails validation: it is discarded as
        ``REJECTED`` and the question requeued exactly as if it had timed
        out (backoff, then reassignment once attempts are exhausted), so
        a garbage-spewing member cannot poison the aggregator.
        """
        key = question.key
        rejected = support is not None and not (
            math.isfinite(support) and 0.0 <= support <= 1.0
        )
        live = self._in_flight.pop(key, None) is not None
        if live and not rejected:
            self._attempts.pop(key, None)
            self._backoff.pop(key, None)
        session = self._sessions.get(question.session_id)
        if not live or session is None:
            _obs_count("service.answers.stale")
            return AnswerOutcome.STALE
        if rejected:
            return self._reject(question, session)
        with _obs_span("service.submit"):
            if support is None:
                _obs_count("service.answers.passed")
                outcome = AnswerOutcome.PASSED
            else:
                outcome = session.submit(
                    question.member_id, question.assignment, support
                )
                if outcome is AnswerOutcome.RECORDED:
                    _obs_count("service.answers.recorded")
                else:
                    _obs_count("service.answers.stale")
            self._maybe_complete(session)
        if outcome is not AnswerOutcome.STALE:
            self._breaker_feed(question.member_id, success=True)
        if (
            self.faults is not None
            and outcome is AnswerOutcome.RECORDED
            and support is not None
            and self.faults.decide("manager.submit", question.member_id)
            is FaultKind.DUPLICATE
        ):
            # idempotence probe: re-deliver the same answer; the queue
            # must drop the second application as STALE
            duplicate = session.submit(
                question.member_id, question.assignment, support
            )
            if duplicate is AnswerOutcome.STALE:
                _obs_count("service.answers.stale")
        return outcome

    def _reject(
        self, question: DispatchedQuestion, session: QuerySession
    ) -> AnswerOutcome:
        """Discard a malformed answer; timeout-equivalent retry semantics."""
        key = question.key
        with _obs_span("service.submit"):
            _obs_count("service.answers.rejected")
            if question.attempt >= self.config.max_attempts:
                self._attempts.pop(key, None)
                self._backoff.pop(key, None)
                _obs_count("service.retries.exhausted")
                self._reassign(
                    session, question.assignment, exclude_member=question.member_id
                )
            else:
                session.expire(question.member_id, question.assignment)
                delay = self.config.backoff_base * (2 ** (question.attempt - 1))
                self._backoff[key] = self.clock() + delay
                _obs_count("service.requeues")
            self._maybe_complete(session)
        self._breaker_feed(question.member_id, success=False)
        return AnswerOutcome.REJECTED

    def submit_prune(
        self, question: DispatchedQuestion, value: Term
    ) -> AnswerOutcome:
        """Record a user-guided pruning click on a dispatched question."""
        key = question.key
        live = self._in_flight.pop(key, None) is not None
        if live:
            self._attempts.pop(key, None)
            self._backoff.pop(key, None)
        session = self._sessions.get(question.session_id)
        if not live or session is None:
            _obs_count("service.answers.stale")
            return AnswerOutcome.STALE
        with _obs_span("service.submit"):
            outcome = session.prune(question.member_id, value, question.assignment)
            if outcome is AnswerOutcome.PRUNED:
                _obs_count("service.answers.pruned")
            else:
                _obs_count("service.answers.stale")
            self._maybe_complete(session)
        if outcome is AnswerOutcome.PRUNED:
            self._breaker_feed(question.member_id, success=True)
        return outcome

    # ----------------------------------------------------- deadlines / retry

    def reap_expired(self, now: Optional[float] = None) -> List[DispatchedQuestion]:
        """Time out overdue questions; requeue, back off, or reassign.

        A question past its deadline goes back onto its member's queue
        with an exponential backoff window (``backoff_base * 2**(attempt-1)``)
        — until the member has burned ``max_attempts`` attempts, at which
        point the node is abandoned for them and reassigned to another
        attached member.  Returns the reaped questions.
        """
        if now is None:
            now = self.clock()
        overdue = [q for q in self._in_flight.values() if q.deadline <= now]
        for question in overdue:
            del self._in_flight[question.key]
        # elapsed backoff windows no longer defer anything — drop them
        for key in [k for k, t in self._backoff.items() if t <= now]:
            del self._backoff[key]
        if not overdue:
            return []
        with _obs_span("service.reap"):
            touched = {}
            for question in overdue:
                _obs_count("service.timeouts")
                self._breaker_feed(question.member_id, success=False)
                session = self._sessions.get(question.session_id)
                if session is None or not session.open:
                    continue
                touched[question.session_id] = session
                if question.attempt >= self.config.max_attempts:
                    self._attempts.pop(question.key, None)
                    _obs_count("service.retries.exhausted")
                    self._reassign(
                        session,
                        question.assignment,
                        exclude_member=question.member_id,
                    )
                else:
                    session.expire(question.member_id, question.assignment)
                    delay = self.config.backoff_base * (2 ** (question.attempt - 1))
                    self._backoff[question.key] = now + delay
                    _obs_count("service.requeues")
            for session in touched.values():
                self._maybe_complete(session)
        return overdue

    def _reassign(
        self, session: QuerySession, node: Assignment, exclude_member: str
    ) -> bool:
        """Queue an abandoned node for the least-loaded other member.

        A target that already holds the node keeps it: nothing is
        requeued, and the node counts as reassigned.
        """
        candidates = [m for m in self._members if m != exclude_member]
        if not candidates:
            return False
        load = {m: 0 for m in candidates}
        for key in self._in_flight:
            if key[1] in load:
                load[key[1]] += 1
        target = min(candidates, key=lambda m: (load[m], m))
        held = (session.session_id, target, node) in self._in_flight
        if held or session.reassign(target, node):
            _obs_count("service.reassigned")
            return True
        return False

    # ------------------------------------------------------------ completion

    def _maybe_complete(self, session: QuerySession) -> bool:
        """Close the session if nothing is left to dispatch or wait for."""
        if not session.open:
            return False
        sid = session.session_id
        if any(key[0] == sid for key in self._in_flight):
            return False
        # no backoff check: a backed-off node sits on its member's stack, so
        # has_work() sees it; checking the backoff map instead would wedge
        # the session when the node dies (classified by others) meanwhile
        if session.has_work(self._members):
            return False
        if session.complete():
            _obs_count("service.sessions.completed")
            return True
        return False

    def all_done(self) -> bool:
        """Are all sessions settled?  Probes open sessions for completion."""
        for session in self.sessions():
            self._maybe_complete(session)
        return all(not s.open for s in self.sessions())

    def in_flight(self) -> List[DispatchedQuestion]:
        return list(self._in_flight.values())

    def next_wakeup(self) -> Optional[float]:
        """The next instant something here changes by itself, or None.

        The earliest in-flight deadline, backoff end or open-breaker
        reopen time strictly after now.  When a whole round serves
        nobody, the in-process loop moves its virtual clock here instead
        of sleeping.
        """
        now = self.clock()
        times = [question.deadline for question in self._in_flight.values()]
        times.extend(self._backoff.values())
        for breaker in self._breakers.values():
            if breaker.reopens_at is not None:
                times.append(breaker.reopens_at)
        future = [when for when in times if when > now]
        return min(future) if future else None

    # -------------------------------------------------------------- breakers

    def _breaker_feed(self, member_id: str, *, success: bool) -> None:
        """Feed one dispatch outcome to the member's breaker, if any."""
        now = self.clock()
        breaker = self._breakers.get(member_id)
        if breaker is None:
            return
        if success:
            breaker.record_success(now)
        else:
            breaker.record_failure(now)

    def breaker_state(self, member_id: str) -> Optional[BreakerState]:
        """The member's breaker state; None when breakers are disabled."""
        breaker = self._breakers.get(member_id)
        return breaker.state if breaker is not None else None

    def breaker_opened_counts(self) -> Dict[str, int]:
        """How often each member's breaker has tripped (quarantine audit)."""
        return {
            member: breaker.opened_count
            for member, breaker in self._breakers.items()
        }

    # --------------------------------------------------------------- helpers

    def _drop_keys(
        self, predicate: Callable[[DispatchKey], bool]
    ) -> List[DispatchKey]:
        """Remove matching dispatch bookkeeping; returns the in-flight keys."""
        dropped = [key for key in self._in_flight if predicate(key)]
        for key in dropped:
            del self._in_flight[key]
        for mapping in (self._backoff, self._attempts):
            for key in [key for key in mapping if predicate(key)]:
                del mapping[key]
        return dropped
