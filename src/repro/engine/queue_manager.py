"""QueueManager: the served walk (Section 6.1).

Where :class:`~repro.mining.multiuser.MultiUserMiner` drives simulated
members itself, :class:`QueueManager` inverts control for serving (the
:mod:`repro.service` session layer, the shard coordinator and the
interactive demo): callers pop askable nodes for a member and push the
member's answers back.  Internally it is the batch walk's
:class:`~repro.mining.multiuser.CrowdWalk`: the same global
classification state, aggregator-driven inference, per-member
:class:`~repro.mining.multiuser.MemberWalk`, pop loop and answer step.

The pull/push surface:

* :meth:`next_batch` pops up to ``k`` askable nodes off the member's
  stack and marks them visited; it keeps no record of the handed-out
  node — the caller holds it (:class:`repro.service.manager.
  SessionManager` alone records which member holds which node);
* :meth:`submit_support` / :meth:`submit_prune` take the member's
  answer for a node and return an explicit :class:`AnswerOutcome`; a
  second answer from the same member for the same node is ``STALE``;
* :meth:`expire_pending` puts a handed-out node back on the member's
  stack unvisited (timeout path), :meth:`requeue_for` queues a node
  another member abandoned, and :meth:`detach_member` releases the
  member's walk when they depart — without it the stacks and visited
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
from ..observability import count as _obs_count, get_tracer
from ..vocabulary.terms import Term


class AnswerOutcome(enum.Enum):
    """What happened to a submitted answer (explicit, instead of None)."""

    #: the support answer was recorded and the traversal advanced
    RECORDED = "recorded"
    #: the pruning click was recorded and the subtree dropped
    PRUNED = "pruned"
    #: no matching question — a late answer for a question that was
    #: already expired, reassigned or answered (service retry paths)
    STALE = "stale"
    #: the member explicitly declined the question (service layer only:
    #: the node stays visited and unanswered for them)
    PASSED = "passed"
    #: the answer failed validation (out-of-range/NaN support) and was
    #: discarded; the question is requeued as if it had timed out
    #: (service layer only — see :meth:`SessionManager.submit`)
    REJECTED = "rejected"


class QueueManager(CrowdWalk[Assignment]):
    """The served walk: per-member stacks over a query assignment space."""

    space: QueryAssignmentSpace

    def __init__(
        self,
        space: QueryAssignmentSpace,
        aggregator: Aggregator,
        cache: Optional[CrowdCache] = None,
    ) -> None:
        super().__init__(space, aggregator, cache)
        self._walks: Dict[str, MemberWalk[Assignment]] = {}

    @property
    def questions_asked(self) -> int:
        """Answers recorded so far (support answers and pruning clicks)."""
        return self.questions

    # -------------------------------------------------------------- members

    def register_member(self, member_id: str) -> None:
        """Open a walk for ``member_id`` (idempotent)."""
        if member_id not in self._walks:
            self._walks[member_id] = MemberWalk(self.space.roots())

    def detach_member(self, member_id: str) -> None:
        """Release the walk held for ``member_id`` (departure).

        The member's recorded answers remain in the aggregator and cache
        — departure abandons *future* work, it does not unwind history.
        Reassigning the nodes the member held is the holder's business
        (:meth:`repro.service.manager.SessionManager.detach_member`).
        """
        self._walks.pop(member_id, None)

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
        exclude: Iterable[Assignment] = (),
    ) -> List[Assignment]:
        """Up to ``k`` askable nodes for ``member_id``; ``[]`` when dry.

        Each node comes off the member's stack marked visited, so it is
        not handed to them again unless :meth:`expire_pending` or
        :meth:`requeue_for` puts it back.  ``exclude`` defers specific
        nodes without consuming them (the retry-backoff window: the node
        stays queued but is not handed out in this call).
        """
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        return self._take(member_id, k, exclude)

    def has_fresh_work(
        self, member_id: str, exclude: Iterable[Assignment] = ()
    ) -> bool:
        """Would :meth:`next_batch` yield anything for the member?

        The completion probe of the service layer: it consumes dead nodes
        as :meth:`next_batch` does but leaves the first askable one queued
        and unvisited.  Nodes in ``exclude`` count as work (a backoff
        window defers them; they are not gone).
        """
        self._take(member_id, 1, exclude, peek=True)
        # all that is left queued is the peeked candidate and deferred nodes
        return bool(self._walks[member_id].stack)

    def _take(
        self,
        member_id: str,
        k: int,
        exclude: Iterable[Assignment],
        peek: bool = False,
    ) -> List[Assignment]:
        """Pop up to ``k`` askable nodes (:meth:`_pop`), ``exclude`` put back.

        With ``peek`` the askable nodes go back on the stack unvisited too.
        """
        self.register_member(member_id)
        walk = self._walks[member_id]
        # count on the tracer active at the call (a batch run reads it in run())
        self._obs = get_tracer()
        excluded = set(exclude)
        deferred: List[Assignment] = []
        askable: List[Assignment] = []
        while len(askable) < k:
            node = self._pop(walk, excluded, deferred)
            if node is None:
                break
            askable.append(node)
        if peek:
            for node in askable:
                walk.visited.discard(node)
                walk.stack.append(node)
        # deferred nodes were popped top-first: restore original order
        walk.stack.extend(reversed(deferred))
        return askable

    def _answering(
        self, member_id: str, node: Assignment
    ) -> Optional[MemberWalk[Assignment]]:
        """The walk an answer for ``node`` lands on; None when it is stale.

        Stale: the member has no walk (never registered, or departed) or
        has already answered ``node``.
        """
        walk = self._walks.get(member_id)
        if walk is None or node in walk.answers:
            _obs_count("crowd.answers.stale")
            return None
        self._obs = get_tracer()
        return walk

    def submit_support(
        self, member_id: str, support: float, node: Assignment
    ) -> AnswerOutcome:
        """Record the member's support answer for ``node``.

        A second answer from the same member for the same node is dropped
        as ``STALE``.
        """
        if not 0.0 <= support <= 1.0:
            raise ValueError(f"support must be in [0, 1], got {support}")
        walk = self._answering(member_id, node)
        if walk is None:
            return AnswerOutcome.STALE
        if self._answer(walk, member_id, node, support):
            self._push_successors(walk, node)
        return AnswerOutcome.RECORDED

    def submit_prune(
        self, member_id: str, value: Term, node: Assignment
    ) -> AnswerOutcome:
        """Record a user-guided pruning click on ``node``.

        ``node`` is answered with support 0 and every assignment
        involving ``value`` (or a specialization) is dropped from the
        member's walk (the space's memoized
        :meth:`~repro.assignments.generator.QueryAssignmentSpace.involves`).
        """
        walk = self._answering(member_id, node)
        if walk is None:
            return AnswerOutcome.STALE
        self._answer(walk, member_id, node, 0.0, value)
        return AnswerOutcome.PRUNED

    # ------------------------------------------------- timeout / reassignment

    def expire_pending(self, member_id: str, node: Assignment) -> None:
        """Put a handed-out ``node`` back on the member's stack, unvisited.

        The timeout path: a later :meth:`next_batch` hands it out again —
        combined with its ``exclude`` window this implements
        retry-with-backoff.  Unknown members are ignored.
        """
        walk = self._walks.get(member_id)
        if walk is not None:
            walk.visited.discard(node)
            walk.stack.append(node)

    def requeue_for(self, member_id: str, node: Assignment) -> bool:
        """Queue ``node`` for ``member_id`` (reassignment path).

        Used when another member abandoned the node; it jumps to the top
        of this member's stack, and a copy already queued there is moved
        rather than left below (it would only be popped as visited).
        Returns False when the member has already answered it (nothing to
        do), True when it was queued.
        """
        self.register_member(member_id)
        walk = self._walks[member_id]
        if node in walk.answers:
            return False
        walk.visited.discard(node)
        if node in walk.stack:
            walk.stack[:] = [queued for queued in walk.stack if queued != node]
        walk.stack.append(node)
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

    # --------------------------------------------------------------- helpers

    def _push_successors(self, walk: MemberWalk[Assignment], node: Assignment) -> None:
        # this walk's push order: as listed, so the last successor pops
        # first (the batch walk pushes reversed chain order)
        visited, stack = walk.visited, walk.stack
        for successor in self.space.successors(node):
            if successor not in visited:
                stack.append(successor)

    def _pruned(self, walk: MemberWalk[Assignment], node: Assignment) -> bool:
        involves = self.space.involves
        return any(involves(node, token) for token in walk.prune_tokens)
