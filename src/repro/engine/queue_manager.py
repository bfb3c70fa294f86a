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
from typing import Dict, Iterable, List, Optional

from ..assignments.assignment import Assignment
from ..assignments.generator import QueryAssignmentSpace
from ..crowd.aggregator import Aggregator
from ..crowd.cache import CrowdCache
from ..mining.multiuser import CrowdWalk, MemberWalk
from ..mining.state import Status
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


class _MemberQueue(MemberWalk[Assignment]):
    """A served member's walk plus the questions handed to them."""

    def __init__(self, roots: List[Assignment]):
        super().__init__(roots)
        # assignment -> PendingQuestion, in hand-out order
        self.pending: Dict[Assignment, PendingQuestion] = {}


class QueueManager(CrowdWalk[Assignment]):
    """Per-member question queues over a query assignment space."""

    def __init__(
        self,
        space: QueryAssignmentSpace,
        aggregator: Aggregator,
        cache: Optional[CrowdCache] = None,
        templates: QuestionTemplates = DEFAULT_TEMPLATES,
    ):
        super().__init__(space, aggregator, cache)
        self.templates = templates
        self._walks: Dict[str, _MemberQueue] = {}

    @property
    def questions_asked(self) -> int:
        """Answers recorded so far (support answers and pruning clicks)."""
        return self.questions

    # -------------------------------------------------------------- members

    def register_member(self, member_id: str) -> None:
        """Open a queue for ``member_id`` (idempotent)."""
        if member_id not in self._walks:
            self._walks[member_id] = _MemberQueue(self.space.roots())

    def detach_member(self, member_id: str) -> List[Assignment]:
        """Release every structure held for ``member_id`` (departure).

        Returns the assignments of the member's pending questions so the
        caller can reassign them (:meth:`requeue_for`).  Detaching an
        unknown member returns ``[]``.  The member's recorded answers
        remain in the aggregator and cache — departure abandons *future*
        work, it does not unwind history.
        """
        walk = self._walks.pop(member_id, None)
        return list(walk.pending) if walk is not None else []

    def is_registered(self, member_id: str) -> bool:
        return member_id in self._walks

    def members(self) -> List[str]:
        return list(self._walks)

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
        walk = self._walks[member_id]
        batch = [] if fresh_only else list(walk.pending.values())[:k]
        for node in self._pop(walk, k - len(batch), exclude):
            fact_set = self.space.instantiate(node)
            question = PendingQuestion(
                member_id,
                node,
                self.templates.concrete_question(fact_set),
                fact_set=fact_set,
            )
            walk.pending[node] = question
            batch.append(question)
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
        walk = self._walks[member_id]
        self._pop(walk, 1, exclude, peek=True)
        # all that is left queued is the peeked candidate and deferred nodes
        return bool(walk.stack)

    def _pop(
        self,
        walk: _MemberQueue,
        k: int,
        exclude: Iterable[Assignment],
        peek: bool = False,
    ) -> List[Assignment]:
        """Pop up to ``k`` askable nodes off ``walk``'s stack.

        Dead nodes on the way are consumed: already visited, classified
        insignificant, pruned by the member, or answered by them (a
        significant answer pushes the node's successors).  Nodes in
        ``exclude`` are popped and put back in their order.  With ``peek``
        the askable nodes go back on the stack unvisited as well.
        """
        excluded = set(exclude)
        stack, visited, answers = walk.stack, walk.visited, walk.answers
        tokens = walk.prune_tokens
        status = self.state.status
        vocabulary = self.space.vocabulary
        deferred: List[Assignment] = []
        askable: List[Assignment] = []
        while stack and len(askable) < k:
            node = stack.pop()
            if node in excluded:
                deferred.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            if status(node) is Status.INSIGNIFICANT:
                continue
            if tokens and any(node.involves(t, vocabulary) for t in tokens):
                continue
            if node in answers:
                if answers[node] >= self.threshold:
                    self._push_successors(walk, node)
                continue
            askable.append(node)
        if peek:
            for node in askable:
                visited.discard(node)
                stack.append(node)
        # deferred nodes were popped top-first: restore original order
        stack.extend(reversed(deferred))
        return askable

    def pending_for(self, member_id: str) -> List[PendingQuestion]:
        """The member's handed-out, unanswered questions (oldest first)."""
        walk = self._walks.get(member_id)
        return list(walk.pending.values()) if walk is not None else []

    def _take_pending(
        self, member_id: str, assignment: Optional[Assignment]
    ) -> Optional[PendingQuestion]:
        """Pop the addressed pending question; None signals a stale answer."""
        walk = self._walks.get(member_id)
        pending = walk.pending if walk is not None else {}
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
        self.questions += 1
        _obs_count("crowd.questions")
        _obs_count("crowd.questions.concrete")
        node = pending.assignment
        walk = self._walks[member_id]
        walk.answers[node] = support
        self._record(node, member_id, support)
        if (
            support >= self.threshold
            and self.state.status(node) is not Status.INSIGNIFICANT
        ):
            self._push_successors(walk, node)
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
        from the member's queue (:meth:`Assignment.involves`).
        """
        pending = self._take_pending(member_id, assignment)
        if pending is None:
            return AnswerOutcome.STALE
        self.questions += 1
        _obs_count("crowd.questions")
        _obs_count("crowd.pruning_clicks")
        walk = self._walks[member_id]
        walk.prune_tokens.append(value)
        walk.answers[pending.assignment] = 0.0
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
        walk = self._walks.get(member_id)
        if walk is None or not walk.pending:
            return []
        pending = walk.pending
        if assignment is None:
            targets = list(pending)
        elif assignment in pending:
            targets = [assignment]
        else:
            return []
        for node in targets:
            del pending[node]
            walk.visited.discard(node)
            walk.stack.append(node)
        return targets

    def skip_node(self, member_id: str, assignment: Assignment) -> None:
        """Abandon ``assignment`` for ``member_id`` (retries exhausted).

        The node counts as visited-without-an-answer for this member: it
        will not be handed to them again and its subtree is not explored
        on their behalf.  Other members' traversals are unaffected.
        """
        walk = self._walks.get(member_id)
        if walk is None:
            return
        walk.pending.pop(assignment, None)
        walk.visited.add(assignment)

    def requeue_for(self, member_id: str, assignment: Assignment) -> bool:
        """Queue ``assignment`` for ``member_id`` (reassignment path).

        Used when another member abandoned the node; it jumps to the top
        of this member's stack.  Returns False when the member has already
        answered it (nothing to do), True when it was (re)queued.
        """
        self.register_member(member_id)
        walk = self._walks[member_id]
        if assignment in walk.answers:
            return False
        if assignment in walk.pending:
            return True  # already handed out to them
        walk.visited.discard(assignment)
        walk.stack.append(assignment)
        return True

    # --------------------------------------------------------------- results

    def preload(self, assignment: Assignment, member_id: str, support: float) -> None:
        """Feed a previously-collected answer (snapshot resume).

        Updates the aggregator, classification state and — when the member
        is registered — their personal answer map, but does *not* touch
        the cache or the question counters: the answer was paid for in an
        earlier run.
        """
        walk = self._walks.get(member_id)
        if walk is not None:
            walk.answers[assignment] = support
        self._record(assignment, member_id, support, fresh=False)

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
        self._walks[member_id].answers[assignment] = support

    def current_msps(self) -> List[Assignment]:
        """The MSPs confirmed so far (incremental output)."""
        self.tracker.refresh(force=True)
        return sorted(self.tracker.confirmed(), key=repr)

    def current_valid_msps(self) -> List[Assignment]:
        self.tracker.refresh(force=True)
        return sorted(self.tracker.confirmed_valid(), key=repr)

    def has_pending(self) -> bool:
        """Is any question currently handed out and unanswered?"""
        return any(walk.pending for walk in self._walks.values())

    # --------------------------------------------------------------- helpers

    def _push_successors(self, walk: _MemberQueue, node: Assignment) -> None:
        # this walk's push order: as listed, so the last successor pops
        # first (the batch walk pushes reversed chain order)
        visited, stack = walk.visited, walk.stack
        for successor in self.space.successors(node):
            if successor not in visited:
                stack.append(successor)
