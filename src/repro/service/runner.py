"""ServiceRunner: one loop driving a SessionManager to quiescence.

OASSIS hands each crowd member the next question of one shared
traversal (paper §4.2, §6.1), so in-process serving waits on members,
not on CPU.  The runner therefore needs no threads: each round it serves
every attached member in turn — fetch a batch, play the member's
scripted behaviour (answer / drop / depart), submit the results.  When a
whole round serves nobody (every member is dry, backed off, quarantined
or at their in-flight cap), the only thing that can change is time, so
the runner moves the manager's :class:`VirtualClock` straight to the
next instant anything happens (:meth:`SessionManager.next_wakeup`: an
in-flight deadline, a backoff end or a breaker reopen) instead of
sleeping.  A dropped question therefore costs no wall time, and one seed
replays the same interleaving every time (for a fixed ``PYTHONHASHSEED``;
see ``docs/SERVICE.md``).

Fault injection (see :mod:`repro.faults`): when the runner carries a
:class:`~repro.faults.plan.FaultPlan`, the ``member.answer`` site is
consulted once per delivered question — timeouts, departures, malformed
answers and duplicate deliveries override the script's behaviour.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..crowd.member import CrowdMember
from ..crowd.questions import ConcreteQuestion
from ..engine.queue_manager import AnswerOutcome
from ..faults.plan import MALFORMED_SUPPORT, FaultKind, FaultPlan
from .manager import DispatchedQuestion, SessionManager

#: sentinel actions a :class:`MemberScript` can take instead of answering
DROP = "drop"
DEPART = "depart"


class VirtualClock:
    """A clock that moves only when told to: the in-process loop's time.

    Pass it as ``clock=`` to a :class:`SessionManager`; the
    :class:`ServiceRunner` serving that manager advances it whenever a
    round serves nobody.
    """

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance_to(self, when: float) -> None:
        """Move forward to ``when`` (never backwards)."""
        self.now = max(self.now, when)


class MemberScript:
    """Deterministic behaviour of one simulated member under service load.

    Wraps a :class:`~repro.crowd.member.CrowdMember` and injects the
    failure modes the service must absorb:

    * ``drop_every=n`` — every n-th delivered question is silently
      ignored (it will hit its deadline, be reaped and retried);
    * ``depart_after=n`` — after answering n questions the member departs
      (the runner detaches them from the manager).

    Counters, not randomness: behaviour depends only on how many
    questions the member has seen, keeping simulations reproducible.
    """

    def __init__(
        self,
        member: CrowdMember,
        *,
        drop_every: int = 0,
        depart_after: Optional[int] = None,
    ) -> None:
        self.member = member
        self.member_id = member.member_id
        self.drop_every = drop_every
        self.depart_after = depart_after
        self.seen = 0
        self.answered = 0
        self.dropped = 0
        self.departed = False

    def respond(self, question: DispatchedQuestion) -> Union[str, float]:
        """The member's reaction: a support value, ``DROP`` or ``DEPART``."""
        if self.depart_after is not None and self.answered >= self.depart_after:
            self.departed = True
            return DEPART
        self.seen += 1
        if self.drop_every and self.seen % self.drop_every == 0:
            self.dropped += 1
            return DROP
        self.answered += 1
        answer = self.member.answer_concrete(
            ConcreteQuestion(question.assignment, question.fact_set)
        )
        return answer.support


class ServiceRunner:
    """Serves a :class:`SessionManager`'s members in turn on one thread.

    The manager must have been built with a :class:`VirtualClock`
    (``engine.session_manager(clock=VirtualClock(), ...)``): the runner
    moves that clock instead of waiting on it.
    """

    def __init__(
        self,
        manager: SessionManager,
        scripts: Iterable[MemberScript],
        *,
        batch_size: Optional[int] = None,
        max_runtime: float = 60.0,
        faults: Optional[FaultPlan] = None,
        audit: bool = False,
    ) -> None:
        if not isinstance(manager.clock, VirtualClock):
            raise TypeError(
                "ServiceRunner needs a SessionManager built with "
                "clock=VirtualClock()"
            )
        self.manager = manager
        self.clock: VirtualClock = manager.clock
        self.scripts: Dict[str, MemberScript] = {
            script.member_id: script for script in scripts
        }
        self.batch_size = batch_size
        self.max_runtime = max_runtime
        self.faults = faults if faults is not None else manager.faults
        self.timed_out = False
        #: when ``audit`` is on: one entry per submission attempt, for
        #: durability invariant checks (see repro.faults.chaos)
        self.audit: Optional[List[Dict[str, object]]] = [] if audit else None

    # ----------------------------------------------------------------- audit

    def _note_submission(
        self,
        question: DispatchedQuestion,
        support: Optional[float],
        outcome: AnswerOutcome,
    ) -> None:
        if self.audit is None:
            return
        self.audit.append(
            {
                "session_id": question.session_id,
                "member_id": question.member_id,
                "assignment": repr(question.assignment),
                "support": support,
                "outcome": outcome.value,
            }
        )

    # ------------------------------------------------------------------- run

    def run(self) -> Dict:
        """Serve until every session settles; returns a summary report.

        Attaches the scripted members (idempotent), then serves rounds
        until :meth:`SessionManager.all_done`.  ``max_runtime`` (wall
        seconds) is the livelock guard: ``timed_out`` is set in the
        report instead of looping forever.
        """
        for member_id in self.scripts:
            self.manager.attach_member(member_id)
        rotation = list(self.scripts)
        started = time.perf_counter()
        while not self.manager.all_done():
            if time.perf_counter() - started >= self.max_runtime:
                self.timed_out = True
                break
            served = False
            for member_id in list(rotation):
                handed, stays = self._serve_member(member_id)
                served = served or handed
                if not stays:
                    rotation.remove(member_id)
            if not served:
                wakeup = self.manager.next_wakeup()
                if wakeup is not None:
                    self.clock.advance_to(wakeup)
        return self._report(time.perf_counter() - started)

    def _serve_member(self, member_id: str) -> Tuple[bool, bool]:
        """One turn: fetch a batch, play the member, submit.

        Returns ``(handed a question, stays in rotation)``.
        """
        script = self.scripts[member_id]
        batch = self.manager.next_batch(member_id, k=self.batch_size)
        for question in batch:
            action = self._respond(script, question)
            if isinstance(action, str):
                if action == DEPART:
                    self.manager.detach_member(member_id)
                    return True, False
                continue  # DROP — never answered: reaped at its deadline
            deliveries = 1
            if isinstance(action, tuple):
                support, deliveries = action
            else:
                support = action
            for _ in range(deliveries):
                outcome = self.manager.submit(question, support)
                self._note_submission(question, support, outcome)
        return bool(batch), True

    def _respond(
        self, script: MemberScript, question: DispatchedQuestion
    ) -> Union[str, float, Tuple[float, int]]:
        """The script's answer, possibly overridden by an injected fault."""
        fault = (
            self.faults.decide("member.answer", script.member_id)
            if self.faults is not None
            else None
        )
        if fault is FaultKind.TIMEOUT:
            script.dropped += 1
            return DROP
        if fault is FaultKind.DEPART:
            script.departed = True
            return DEPART
        if fault is FaultKind.MALFORMED:
            return MALFORMED_SUPPORT
        action = script.respond(question)
        if fault is FaultKind.DUPLICATE and isinstance(action, float):
            return (action, 2)  # deliver the same answer twice
        return action

    def _report(self, elapsed: float) -> Dict:
        sessions = {}
        total_questions = 0
        for session in self.manager.sessions():
            asked = session.questions_asked()
            total_questions += asked
            sessions[session.session_id] = {
                "state": session.state.value,
                "questions": asked,
                "msps": len(session.msps()),
                "valid_msps": len(session.valid_msps()),
            }
        settled = sum(1 for s in sessions.values() if s["state"] != "open")
        return {
            "elapsed_seconds": elapsed,
            "virtual_seconds": self.clock.now,
            "timed_out": self.timed_out,
            "faults_injected": (
                self.faults.injected() if self.faults is not None else {}
            ),
            "sessions": sessions,
            "questions_answered": total_questions,
            "sessions_per_second": settled / elapsed if elapsed > 0 else 0.0,
            "questions_per_second": (
                total_questions / elapsed if elapsed > 0 else 0.0
            ),
            "members": {
                member_id: {
                    "answered": script.answered,
                    "dropped": script.dropped,
                    "departed": script.departed,
                }
                for member_id, script in self.scripts.items()
            },
        }
