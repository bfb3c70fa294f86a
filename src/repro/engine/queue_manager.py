"""QueueManager: the interactive question-queue façade (Section 6.1).

Where :class:`~repro.mining.multiuser.MultiUserMiner` drives simulated
members itself, :class:`QueueManager` inverts control for interactive use
(the UI example and the :mod:`repro.service` session layer): callers pull
questions for a member and push the member's answers back.  Internally it
maintains the same global classification state, aggregator-driven
inference and per-member traversal stacks, and prunes queued assignments
that become irrelevant.

The pull/push surface speaks the *session vocabulary*:

* :meth:`next_batch` hands out up to ``k`` questions at once (several may
  be in flight per member); :meth:`next_question` is the ``k=1`` wrapper;
* :meth:`submit_support` / :meth:`submit_prune` return an explicit
  :class:`AnswerOutcome` instead of bare ``None``;
* :meth:`expire_pending` requeues handed-out questions that timed out,
  :meth:`skip_node` abandons a question for one member after retries are
  exhausted, :meth:`requeue_for` reassigns an abandoned assignment to
  another member, and :meth:`detach_member` releases every per-member
  structure when a member departs — without it the stacks and visited
  sets of members that never answer leak for the lifetime of the run.

Thread-safety: a QueueManager is *not* internally synchronized.  One
thread owns it: the serving loop that owns its session (see
``docs/SERVICE.md``), or the caller in interactive use.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Set

from ..assignments.assignment import Assignment
from ..assignments.generator import QueryAssignmentSpace
from ..crowd.aggregator import Aggregator, Verdict
from ..crowd.cache import CrowdCache
from ..mining.state import ClassificationState, Status
from ..mining.trace import MspTracker
from ..nlg.templates import DEFAULT_TEMPLATES, QuestionTemplates
from ..observability import count as _obs_count
from ..ontology.facts import FactSet
from ..vocabulary.terms import Term


class AnswerOutcome(enum.Enum):
    """What happened to a submitted answer (explicit, instead of None)."""

    #: the support answer was recorded and the traversal advanced
    RECORDED = "recorded"
    #: the pruning click was recorded and the subtree dropped
    PRUNED = "pruned"
    #: no matching pending question — a late answer for a question that
    #: was already expired, reassigned or answered (service retry paths)
    STALE = "stale"
    #: the member explicitly declined the question (service layer only:
    #: the node is abandoned for them via :meth:`QueueManager.skip_node`)
    PASSED = "passed"
    #: the answer failed validation (out-of-range/NaN support) and was
    #: discarded; the question is requeued as if it had timed out
    #: (service layer only — see :meth:`SessionManager.submit`)
    REJECTED = "rejected"


class PendingQuestion:
    """A question handed to a member, awaiting their answer.

    ``fact_set`` carries the instantiated assignment so answering code
    (e.g. a simulated member, or a remote one behind the gateway) never
    needs to touch the shared assignment space.
    """

    def __init__(
        self,
        member_id: str,
        assignment: Assignment,
        text: str,
        fact_set: Optional[FactSet] = None,
    ):
        self.member_id = member_id
        self.assignment = assignment
        self.text = text
        self.fact_set = fact_set

    def __repr__(self) -> str:
        return f"PendingQuestion({self.member_id!r}, {self.assignment!r})"


class QueueManager:
    """Per-member question queues over a query assignment space."""

    def __init__(
        self,
        space: QueryAssignmentSpace,
        aggregator: Aggregator,
        cache: Optional[CrowdCache] = None,
        templates: QuestionTemplates = DEFAULT_TEMPLATES,
    ):
        self.space = space
        self.aggregator = aggregator
        self.cache = cache
        self.templates = templates
        self.state: ClassificationState[Assignment] = ClassificationState(space)
        self.tracker: MspTracker[Assignment] = MspTracker(space, self.state)
        self.questions_asked = 0
        self._stacks: Dict[str, List[Assignment]] = {}
        self._visited: Dict[str, Set[Assignment]] = {}
        self._answers: Dict[str, Dict[Assignment, float]] = {}
        self._pruned: Dict[str, List[Term]] = {}
        # member -> assignment -> PendingQuestion, in hand-out order
        self._pending: Dict[str, Dict[Assignment, PendingQuestion]] = {}

    # -------------------------------------------------------------- members

    def register_member(self, member_id: str) -> None:
        """Open a queue for ``member_id`` (idempotent)."""
        if member_id not in self._stacks:
            self._stacks[member_id] = list(reversed(self.space.roots()))
            self._visited[member_id] = set()
            self._answers[member_id] = {}
            self._pruned[member_id] = []
            self._pending[member_id] = {}

    def detach_member(self, member_id: str) -> List[Assignment]:
        """Release every structure held for ``member_id`` (departure).

        Returns the assignments of the member's pending questions so the
        caller can reassign them (:meth:`requeue_for`).  Detaching an
        unknown member returns ``[]``.  The member's recorded answers
        remain in the aggregator and cache — departure abandons *future*
        work, it does not unwind history.
        """
        if member_id not in self._stacks:
            return []
        abandoned = list(self._pending.pop(member_id, {}))
        del self._stacks[member_id]
        del self._visited[member_id]
        del self._answers[member_id]
        del self._pruned[member_id]
        return abandoned

    def is_registered(self, member_id: str) -> bool:
        return member_id in self._stacks

    def members(self) -> List[str]:
        return list(self._stacks)

    # ------------------------------------------------------------- questions

    def next_batch(
        self,
        member_id: str,
        k: int = 1,
        *,
        fresh_only: bool = False,
        exclude: Iterable[Assignment] = (),
    ) -> List[PendingQuestion]:
        """Up to ``k`` questions for ``member_id``; ``[]`` when dry.

        Previously handed-out, unanswered questions are re-delivered first
        (oldest first) unless ``fresh_only`` is set — the service layer
        tracks its own in-flight set and asks only for new work.
        ``exclude`` defers specific assignments without consuming them
        (the retry-backoff window: the node stays queued but is not handed
        out in this call).
        """
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        self.register_member(member_id)
        pending = self._pending[member_id]
        batch: List[PendingQuestion] = []
        if not fresh_only:
            batch.extend(list(pending.values())[:k])
        excluded = set(exclude)
        stack = self._stacks[member_id]
        visited = self._visited[member_id]
        answers = self._answers[member_id]
        deferred: List[Assignment] = []
        while stack and len(batch) < k:
            node = stack.pop()
            if node in excluded:
                deferred.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            if self.state.status(node) is Status.INSIGNIFICANT:
                continue
            if self._is_personally_pruned(member_id, node):
                continue
            if node in answers:
                if answers[node] >= self.aggregator.threshold:
                    self._push_successors(member_id, node)
                continue
            fact_set = self.space.instantiate(node)
            question = PendingQuestion(
                member_id,
                node,
                self.templates.concrete_question(fact_set),
                fact_set=fact_set,
            )
            pending[node] = question
            batch.append(question)
        # deferred nodes were popped top-first: restore original order
        stack.extend(reversed(deferred))
        return batch

    def next_question(self, member_id: str) -> Optional[PendingQuestion]:
        """The next question for ``member_id``; None when their queue is dry.

        A previously handed-out, unanswered question is returned again.
        Equivalent to ``next_batch(member_id, k=1)``.
        """
        batch = self.next_batch(member_id, 1)
        return batch[0] if batch else None

    def has_fresh_work(
        self, member_id: str, exclude: Iterable[Assignment] = ()
    ) -> bool:
        """Would ``next_batch(fresh_only=True)`` yield anything for the member?

        The completion probe of the service layer.  Dead nodes encountered
        on the way (classified, personally pruned, already answered) are
        consumed exactly as :meth:`next_batch` would consume them, but the
        first askable candidate is left queued and unvisited.  Nodes in
        ``exclude`` count as work (they are merely deferred by a backoff
        window, not gone).
        """
        self.register_member(member_id)
        excluded = set(exclude)
        stack = self._stacks[member_id]
        visited = self._visited[member_id]
        answers = self._answers[member_id]
        deferred: List[Assignment] = []
        found = False
        while stack:
            node = stack.pop()
            if node in excluded:
                deferred.append(node)
                continue
            if node in visited:
                continue
            if self.state.status(node) is Status.INSIGNIFICANT:
                visited.add(node)
                continue
            if self._is_personally_pruned(member_id, node):
                visited.add(node)
                continue
            if node in answers:
                visited.add(node)
                if answers[node] >= self.aggregator.threshold:
                    self._push_successors(member_id, node)
                continue
            stack.append(node)
            found = True
            break
        stack.extend(reversed(deferred))
        return found or bool(deferred)

    def pending_for(self, member_id: str) -> List[PendingQuestion]:
        """The member's handed-out, unanswered questions (oldest first)."""
        return list(self._pending.get(member_id, {}).values())

    def _take_pending(
        self, member_id: str, assignment: Optional[Assignment]
    ) -> Optional[PendingQuestion]:
        """Pop the addressed pending question; None signals a stale answer."""
        pending = self._pending.get(member_id) or {}
        if assignment is None:
            if not pending:
                raise RuntimeError(f"no pending question for {member_id!r}")
            assignment = next(iter(pending))
        elif assignment not in pending:
            _obs_count("crowd.answers.stale")
            return None
        return pending.pop(assignment)

    def submit_support(
        self,
        member_id: str,
        support: float,
        assignment: Optional[Assignment] = None,
    ) -> AnswerOutcome:
        """Record a support answer for one of the member's pending questions.

        ``assignment`` addresses the question being answered; omitted, the
        oldest pending question is assumed (the pre-batching behaviour).
        Answers addressed to a question no longer pending — expired and
        reassigned while the member dawdled — are dropped as ``STALE``.
        """
        if not 0.0 <= support <= 1.0:
            raise ValueError(f"support must be in [0, 1], got {support}")
        pending = self._take_pending(member_id, assignment)
        if pending is None:
            return AnswerOutcome.STALE
        self.questions_asked += 1
        _obs_count("crowd.questions")
        _obs_count("crowd.questions.concrete")
        node = pending.assignment
        self._answers[member_id][node] = support
        self._record(node, member_id, support)
        if (
            support >= self.aggregator.threshold
            and self.state.status(node) is not Status.INSIGNIFICANT
        ):
            self._push_successors(member_id, node)
        return AnswerOutcome.RECORDED

    def submit_prune(
        self,
        member_id: str,
        value: Term,
        assignment: Optional[Assignment] = None,
    ) -> AnswerOutcome:
        """Record a user-guided pruning click on a pending question.

        The pending question is answered with support 0 and every
        assignment involving ``value`` (or a specialization) is dropped
        from the member's queue.
        """
        pending = self._take_pending(member_id, assignment)
        if pending is None:
            return AnswerOutcome.STALE
        self.questions_asked += 1
        _obs_count("crowd.questions")
        _obs_count("crowd.pruning_clicks")
        self._pruned[member_id].append(value)
        self._answers[member_id][pending.assignment] = 0.0
        self._record(pending.assignment, member_id, 0.0)
        return AnswerOutcome.PRUNED

    # ------------------------------------------------- timeout / reassignment

    def expire_pending(
        self, member_id: str, assignment: Optional[Assignment] = None
    ) -> List[Assignment]:
        """Return pending question(s) to the member's queue (timeout path).

        The expired assignments go back onto the member's stack unvisited,
        so a later :meth:`next_batch` hands them out again — combined with
        its ``exclude`` window this implements retry-with-backoff.  With
        ``assignment=None`` every pending question of the member expires.
        Returns the expired assignments (``[]`` for unknown members).
        """
        pending = self._pending.get(member_id)
        if not pending:
            return []
        if assignment is None:
            targets = list(pending)
        elif assignment in pending:
            targets = [assignment]
        else:
            return []
        visited = self._visited[member_id]
        stack = self._stacks[member_id]
        for node in targets:
            del pending[node]
            visited.discard(node)
            stack.append(node)
        return targets

    def skip_node(self, member_id: str, assignment: Assignment) -> None:
        """Abandon ``assignment`` for ``member_id`` (retries exhausted).

        The node counts as visited-without-an-answer for this member: it
        will not be handed to them again and its subtree is not explored
        on their behalf.  Other members' traversals are unaffected.
        """
        if member_id not in self._stacks:
            return
        self._pending[member_id].pop(assignment, None)
        self._visited[member_id].add(assignment)

    def requeue_for(self, member_id: str, assignment: Assignment) -> bool:
        """Queue ``assignment`` for ``member_id`` (reassignment path).

        Used when another member abandoned the node; it jumps to the top
        of this member's stack.  Returns False when the member has already
        answered it (nothing to do), True when it was (re)queued.
        """
        self.register_member(member_id)
        if assignment in self._answers[member_id]:
            return False
        if assignment in self._pending[member_id]:
            return True  # already handed out to them
        self._visited[member_id].discard(assignment)
        self._stacks[member_id].append(assignment)
        return True

    # --------------------------------------------------------------- results

    def preload(self, assignment: Assignment, member_id: str, support: float) -> None:
        """Feed a previously-collected answer (snapshot resume).

        Updates the aggregator, classification state and — when the member
        is registered — their personal answer map, but does *not* touch
        the cache or the question counters: the answer was paid for in an
        earlier run.
        """
        self.aggregator.add_answer(assignment, member_id, support)
        if member_id in self._answers:
            self._answers[member_id][assignment] = support
        self._apply_verdict(assignment)

    def mark_answered(
        self, member_id: str, assignment: Assignment, support: float
    ) -> None:
        """Seed one member's personal answer map (snapshot resume).

        Unlike :meth:`preload` this touches *only* the member's answer map
        — the aggregator already saw the answer when the whole cache was
        preloaded at session creation; feeding it again would double-count.
        The member's traversal then treats ``assignment`` as answered and
        continues from the cached frontier.
        """
        self.register_member(member_id)
        self._answers[member_id][assignment] = support

    def current_msps(self) -> List[Assignment]:
        """The MSPs confirmed so far (incremental output)."""
        self.tracker.refresh(force=True)
        return sorted(self.tracker.confirmed(), key=repr)

    def current_valid_msps(self) -> List[Assignment]:
        self.tracker.refresh(force=True)
        return sorted(self.tracker.confirmed_valid(), key=repr)

    def is_complete(self) -> bool:
        """No reachable assignment is still unclassified."""
        seen: Set[Assignment] = set()
        frontier = list(self.space.roots())
        seen.update(frontier)
        index = 0
        while index < len(frontier):
            node = frontier[index]
            index += 1
            status = self.state.status(node)
            if status is Status.UNKNOWN:
                return False
            if status is Status.INSIGNIFICANT:
                continue
            for successor in self.space.successors(node):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return True

    def has_pending(self) -> bool:
        """Is any question currently handed out and unanswered?"""
        return any(self._pending.values())

    # --------------------------------------------------------------- helpers

    def _record(self, node: Assignment, member_id: str, support: float) -> None:
        self.aggregator.add_answer(node, member_id, support)
        if self.cache is not None:
            self.cache.record(node, member_id, support)
        self._apply_verdict(node)

    def _apply_verdict(self, node: Assignment) -> None:
        verdict = self.aggregator.verdict(node)
        if verdict is Verdict.UNDECIDED:
            return
        status = self.state.status(node)
        if status is Status.UNKNOWN:
            if verdict is Verdict.SIGNIFICANT:
                self.state.mark_significant(node)
                status = Status.SIGNIFICANT
            else:
                self.state.mark_insignificant(node)
            _obs_count("mining.classified.by_crowd")
        if status is Status.SIGNIFICANT and verdict is Verdict.SIGNIFICANT:
            # a node the closure already made insignificant is no candidate
            self.tracker.note_significant(node)

    def _push_successors(self, member_id: str, node: Assignment) -> None:
        visited = self._visited[member_id]
        stack = self._stacks[member_id]
        for successor in self.space.successors(node):
            if successor not in visited:
                stack.append(successor)

    def _is_personally_pruned(self, member_id: str, node: Assignment) -> bool:
        vocabulary = self.space.vocabulary
        for token in self._pruned[member_id]:
            for values in node.values.values():
                for value in values:
                    if vocabulary.leq(token, value):
                        return True
        return False
