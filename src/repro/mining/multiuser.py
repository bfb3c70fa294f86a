"""Multi-user crowd mining (Section 4.2) with QueueManager semantics.

Each crowd member runs the same top-down traversal as the single-user
vertical algorithm, but *inference is global*: answers stream into a
black-box aggregator, and only its verdicts classify assignments (via the
Observation 4.4 closure).  The per-user refinements of Section 4.2 are all
implemented:

1. per-user sessions that can stop at any point (``willing()``);
2. answers are recorded per assignment (aggregator + CrowdCache);
3. classification happens on the aggregator's SIGNIFICANT / INSIGNIFICANT /
   UNDECIDED verdicts;
4. a user is not asked about successors of an assignment that is
   insignificant *for them* or already insignificant overall;
5. MSPs are confirmed globally, when all successors of a significant
   assignment are classified insignificant.

Traversal starts from the overall most general assignments even when they
are already classified (the Section 4.2 refinement); by default users
descend *without* being re-asked about assignments whose global verdict is
already decided (set ``ask_decided_generals=True`` to spend the redundant
questions on per-user routing instead — the ablation benchmark compares
both).  The driver interleaves users round-robin, one question per turn,
emulating members answering in parallel; it stops as soon as no
globally-unclassified assignment remains reachable, so cached answers beyond
that point are "not used" (the Section 6.3 accounting).
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Generic,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from ..assignments.lattice import AssignmentSpace
from ..crowd.aggregator import Aggregator, Verdict
from ..crowd.cache import CrowdCache
from ..observability import count as _obs_count, get_tracer, span as _obs_span
from .state import ClassificationState, Status
from .trace import MiningResult, MiningTrace, Probe

Node = TypeVar("Node", bound=Hashable)


class UserOracle(Generic[Node]):
    """Adapter between the miner and one (simulated) crowd member."""

    def __init__(self, member_id: str):
        self.member_id = member_id

    def willing(self) -> bool:
        """May this user still be asked questions?

        Answering False is treated as a *departure*: the miner releases
        the user's traversal state and never consults them again.
        """
        return True

    def support(self, node: Node) -> float:
        """The user's support for ``node``."""
        raise NotImplementedError

    def wants_specialization(self) -> bool:
        """Does the user opt into an open-ended question right now?"""
        return False

    def choose_specialization(
        self, node: Node, candidates: Sequence[Node]
    ) -> Optional[Tuple[Node, float]]:
        """Pick a personally frequent candidate, or None ("none of these")."""
        return None

    def prune_value(self, node: Node) -> Optional[object]:
        """A pruning token if the user prunes while viewing ``node``."""
        return None

    def matches_prune(self, node: Node, token: object) -> bool:
        """Is ``node`` covered by a previously returned pruning token?"""
        return False

    def more_tip(self, node: Node):
        """A volunteered MORE fact for ``node`` (the UI's "more" button)."""
        return None


class FunctionUser(UserOracle[Node]):
    """A user backed by a plain support function (synthetic experiments)."""

    def __init__(
        self,
        member_id: str,
        support_fn: Callable[[Node], float],
        max_questions: Optional[int] = None,
    ):
        super().__init__(member_id)
        self._support_fn = support_fn
        self._max_questions = max_questions
        self.questions = 0

    def willing(self) -> bool:
        return self._max_questions is None or self.questions < self._max_questions

    def support(self, node: Node) -> float:
        self.questions += 1
        return self._support_fn(node)


class MemberWalk(Generic[Node]):
    """One member's walk through the lattice: the record both §4.2 walks keep.

    ``stack`` holds the nodes still to visit (popped from the end),
    ``visited`` the nodes popped so far, ``answers`` the member's own
    answers (they steer the walk even after the aggregator has decided a
    node) and ``prune_tokens`` the member's pruning clicks.
    """

    def __init__(self, roots: Sequence[Node]):
        self.stack: List[Node] = list(reversed(list(roots)))
        self.visited: Set[Node] = set()
        self.answers: Dict[Node, float] = {}
        self.prune_tokens: List[object] = []


class _Session(MemberWalk[Node]):
    """A simulated member's walk, driven by :class:`MultiUserMiner`."""

    def __init__(self, user: UserOracle[Node], roots: Sequence[Node]):
        super().__init__(roots)
        self.user = user
        self.done = False

    def finish(self) -> None:
        """Mark done and release the traversal state.

        Users who drained their stack or quit never advance again, and
        their visited sets and stacks are proportional to the explored
        lattice: on crowds where most members answer only a few questions
        (or none), keeping them to the end of the run would dominate
        memory.  :meth:`QueueManager.detach_member` does the same for
        interactive sessions.
        """
        self.done = True
        self.stack = []
        self.visited = set()
        self.answers = {}
        self.prune_tokens = []


class CrowdWalk(Probe[Node]):
    """What the two §4.2 walks share.

    :class:`MultiUserMiner` drives simulated members itself;
    :class:`~repro.engine.queue_manager.QueueManager` lets callers pull
    questions and push answers.  Both keep a :class:`MemberWalk` per
    member and classify through one verdict step, :meth:`_record`.  Three
    things each walk keeps for itself until ROADMAP item 1 settles them:
    the order it pushes successors in (``_push_successors``), whether it
    skips nodes the aggregator has already decided, and the batch-only
    answer kinds (specialization, "none of these", MORE tips).
    """

    def __init__(
        self,
        space: AssignmentSpace[Node],
        aggregator: Aggregator,
        cache: Optional[CrowdCache] = None,
        **probe_options,
    ):
        super().__init__(space, threshold=aggregator.threshold, **probe_options)
        self.aggregator = aggregator
        self.cache = cache

    def _record(
        self, node: Node, member_id: str, support: float, fresh: bool = True
    ) -> None:
        """The verdict step: aggregator verdict → Observation 4.4 mark → MSP candidate.

        ``fresh=False`` feeds a resumed answer, which the cache already
        holds from the run that collected it.
        """
        self.aggregator.add_answer(node, member_id, support)
        if fresh and self.cache is not None:
            self.cache.record(node, member_id, support)
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


class QuestionStats:
    """Answer-type accounting (the Section 6.3 percentages)."""

    def __init__(self) -> None:
        self.concrete = 0
        self.specialization = 0
        self.none_of_these = 0
        self.pruning_clicks = 0
        self.more_tips = 0

    @property
    def total(self) -> int:
        return self.concrete + self.specialization + self.pruning_clicks

    def as_dict(self) -> Dict[str, int]:
        return {
            "concrete": self.concrete,
            "specialization": self.specialization,
            "none_of_these": self.none_of_these,
            "pruning_clicks": self.pruning_clicks,
            "more_tips": self.more_tips,
        }


class MultiUserResult(MiningResult[Node]):
    """Multi-user outcome: adds question statistics and per-user counts."""

    def __init__(
        self,
        msps: Sequence[Node],
        valid_msps: Sequence[Node],
        questions: int,
        trace: MiningTrace,
        state: ClassificationState[Node],
        stats: QuestionStats,
        questions_per_user: Dict[str, int],
    ):
        super().__init__(msps, valid_msps, questions, trace, state)
        self.stats = stats
        self.questions_per_user = dict(questions_per_user)


class MultiUserMiner(CrowdWalk[Node]):
    """Drives the multi-user algorithm over an assignment space."""

    def __init__(
        self,
        space: AssignmentSpace[Node],
        users: Sequence[UserOracle[Node]],
        aggregator: Aggregator,
        cache: Optional[CrowdCache] = None,
        ask_decided_generals: bool = False,
        valid_nodes: Optional[Sequence[Node]] = None,
        target_msps: Optional[Sequence[Node]] = None,
        max_total_questions: Optional[int] = None,
    ):
        # sampling is throttled: large crowds over lazy spaces would spend
        # more time measuring progress than mining otherwise
        super().__init__(
            space,
            aggregator,
            cache,
            stride=5,
            valid_nodes=valid_nodes,
            valid_stride=10,
            target_msps=target_msps,
        )
        self.users = list(users)
        self.ask_decided_generals = ask_decided_generals
        self.max_total_questions = max_total_questions
        # chain-partitioned question order when the space provides it
        # (QueryAssignmentSpace does); plain successor order otherwise
        self._ordered_successors: Callable[[Node], Sequence[Node]] = getattr(
            space, "ordered_successors", space.successors
        )
        self.stats = QuestionStats()
        self.questions_per_user: Dict[str, int] = {}

    # ------------------------------------------------------------------ run

    def run(self) -> MultiUserResult[Node]:
        self._obs = get_tracer()
        with _obs_span("mine.multiuser"):
            return self._run()

    def _run(self) -> MultiUserResult[Node]:
        sessions = [_Session(user, self.space.roots()) for user in self.users]
        # termination: each turn either poses a question or drains the
        # user's stack; when nothing was posed in a full round every stack
        # is empty, which subsumes the global-completeness check
        while not self._budget_exhausted():
            progressed = False
            for session in sessions:
                if self._budget_exhausted():
                    break
                if session.done:
                    continue
                if not session.user.willing():
                    # the user departed: release their traversal state
                    session.finish()
                    continue
                if self._user_turn(session):
                    progressed = True
            if not progressed:
                break  # every user is done or unwilling
        # final forced sample so the trace's last point reflects the truth
        self.sample(force=True)
        return self.result(  # type: ignore[return-value]
            result_type=MultiUserResult,
            stats=self.stats,
            questions_per_user=self.questions_per_user,
        )

    def _budget_exhausted(self) -> bool:
        return (
            self.max_total_questions is not None
            and self.questions >= self.max_total_questions
        )

    # ------------------------------------------------------------ user turn

    def _user_turn(self, session: _Session[Node]) -> bool:
        """Advance one user until a question is posed; False = user done."""
        while session.stack:
            node = session.stack.pop()
            if node in session.visited:
                continue
            session.visited.add(node)
            if self.state.status(node) is Status.INSIGNIFICANT:
                if self._obs is not None:
                    self._obs.count("mining.skipped.insignificant")
                continue  # pruned globally (QueueManager)
            if session.prune_tokens and any(
                session.user.matches_prune(node, token)
                for token in session.prune_tokens
            ):
                if self._obs is not None:
                    self._obs.count("mining.skipped.user_pruned")
                continue  # pruned for this user
            if node in session.answers:
                if session.answers[node] >= self.threshold:
                    self._push_successors(session, node)
                continue
            # the decided-node skip: this walk's own, the served walk asks
            decided = self.aggregator.verdict(node) is not Verdict.UNDECIDED
            if decided and not self.ask_decided_generals:
                # descend optimistically without spending a question
                if self._obs is not None:
                    self._obs.count("mining.skipped.decided")
                if self.state.status(node) is Status.SIGNIFICANT:
                    self._push_successors(session, node)
                continue
            self._pose_question(session, node)
            return True
        session.finish()
        return False

    def _pose_question(self, session: _Session[Node], node: Node) -> None:
        support = session.user.support(node)
        self.questions += 1
        self.questions_per_user[session.user.member_id] = (
            self.questions_per_user.get(session.user.member_id, 0) + 1
        )
        if self._obs is not None:
            self._obs.count("crowd.questions")
        session.answers[node] = support
        token = session.user.prune_value(node)
        if token is not None:
            # the interaction was a pruning click: support 0, subtree pruned
            self.stats.pruning_clicks += 1
            if self._obs is not None:
                self._obs.count("crowd.pruning_clicks")
            session.prune_tokens.append(token)
            session.answers[node] = 0.0
            self._record(node, session.user.member_id, 0.0)
            self.sample()
            return
        self.stats.concrete += 1
        if self._obs is not None:
            self._obs.count("crowd.questions.concrete")
        self._record(node, session.user.member_id, support)
        personally_significant = support >= self.threshold
        overall_insignificant = self.state.status(node) is Status.INSIGNIFICANT
        if personally_significant and not overall_insignificant:
            self._maybe_propose_more(session, node)
            if session.user.wants_specialization():
                self.sample()
                self._pose_specialization(session, node)
            else:
                self._push_successors(session, node)
                self.sample()
        else:
            self.sample()

    def _pose_specialization(self, session: _Session[Node], node: Node) -> None:
        candidates = [
            s
            for s in self._ordered_successors(node)
            if self.state.status(s) is not Status.INSIGNIFICANT
            and s not in session.answers
            and not any(
                session.user.matches_prune(s, t) for t in session.prune_tokens
            )
        ]
        if not candidates:
            return
        self.questions += 1
        self.questions_per_user[session.user.member_id] = (
            self.questions_per_user.get(session.user.member_id, 0) + 1
        )
        self.stats.specialization += 1
        if self._obs is not None:
            self._obs.count("crowd.questions")
            self._obs.count("crowd.questions.specialization")
        choice = session.user.choose_specialization(node, candidates)
        if choice is None:
            # "none of these": zero answers for every offered candidate
            self.stats.none_of_these += 1
            if self._obs is not None:
                self._obs.count("crowd.none_of_these")
            for candidate in candidates:
                session.answers[candidate] = 0.0
                self._record(candidate, session.user.member_id, 0.0)
        else:
            chosen, support = choice
            session.answers[chosen] = support
            self._record(chosen, session.user.member_id, support)
            # explore the named specialization first, the rest later
            for candidate in candidates:
                if candidate != chosen and candidate not in session.visited:
                    session.stack.append(candidate)
            session.visited.discard(chosen)
            session.stack.append(chosen)
        self.sample()

    def _maybe_propose_more(self, session: _Session[Node], node: Node) -> None:
        """Register a volunteered MORE extension (no question cost).

        The paper's "more" button accompanies an answer; the proposed
        extension becomes a successor of ``node`` in the lazy space and is
        then verified with ordinary concrete questions.
        """
        if not hasattr(self.space, "propose_more_fact"):
            return
        tip = session.user.more_tip(node)
        if tip is None:
            return
        extended = self.space.propose_more_fact(node, tip)
        if extended is not None:
            self.stats.more_tips += 1
            # an unconfirmed candidate MSP gains a successor mid-run: the
            # tracker's pending frontier must include it
            self.tracker.note_new_successor(node, extended)
            if self._obs is not None:
                self._obs.count("crowd.more_tips")

    def _push_successors(self, session: _Session[Node], node: Node) -> None:
        # this walk's push order: reversed, so the stack pops in
        # chain-partition order and a user walks one taxonomy chain to its
        # end before switching chains (the served walk pops the last first)
        for successor in reversed(self._ordered_successors(node)):
            if successor not in session.visited:
                session.stack.append(successor)
