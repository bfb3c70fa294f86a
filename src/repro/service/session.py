"""One live query session: a QueueManager plus its crowd cache.

A :class:`QuerySession` is the unit the :class:`~repro.service.manager.
SessionManager` multiplexes members across.  It owns

* the per-query :class:`~repro.engine.queue_manager.QueueManager` (the
  traversal stacks, classification state and aggregator), and
* the session's :class:`~repro.crowd.cache.CrowdCache` (every answer paid
  for, the source of snapshot/resume).

Neither the queue manager nor its :class:`~repro.mining.state.
ClassificationState` is synchronized (even ``status()`` mutates memos);
the thread that owns the manager owns its sessions too (see
``docs/SERVICE.md``).
"""

from __future__ import annotations

import enum
import os
from collections import defaultdict
from typing import Collection, Dict, Iterable, List, Optional, Tuple, Union

from ..assignments.assignment import Assignment
from ..crowd.cache import CrowdCache
from ..engine.queue_manager import AnswerOutcome, QueueManager
from ..engine.results import QueryResult, build_result
from ..oassisql.ast import Query
from ..observability import atomic_write_json, count as _obs_count
from ..vocabulary.terms import Term

#: schema version of the session checkpoint file
CHECKPOINT_VERSION = 1


class SessionState(enum.Enum):
    """Lifecycle of a query session."""

    OPEN = "open"
    COMPLETED = "completed"
    CANCELLED = "cancelled"


class QuerySession:
    """A single query being mined by the crowd."""

    def __init__(
        self,
        session_id: str,
        query: Query,
        queue: QueueManager,
        cache: CrowdCache,
        include_invalid: bool = False,
        query_text: Optional[str] = None,
        sample_size: Optional[int] = None,
    ) -> None:
        self.session_id = session_id
        self.query = query
        self.queue = queue
        self.cache = cache
        self.include_invalid = include_invalid
        #: the original OASSIS-QL text, when known — required for
        #: checkpoint/restore (the AST has no serializer)
        self.query_text = query_text
        self.sample_size = sample_size
        self.state = SessionState.OPEN
        self.resumed_answers = 0
        # member -> cached (assignment, support) pairs, filled on resume so
        # late-attaching members start from the cached frontier
        self._cached_by_member: Dict[str, List[Tuple[Assignment, float]]] = {}
        # checkpointing (enable_checkpoints)
        self._checkpoint_path: Optional[str] = None
        self._checkpoint_every = 0
        self._recorded_since_checkpoint = 0

    def __repr__(self) -> str:
        return f"QuerySession({self.session_id!r}, {self.state.value})"

    # ------------------------------------------------------------- lifecycle

    def resume_from_cache(self) -> int:
        """Preload every cached answer (snapshot resume); returns the count.

        Feeds the aggregator and classification state once per cached
        answer — the verdicts of the previous run are reconstructed before
        any member is attached.  Per-member answer maps are seeded later,
        at attach time (:meth:`ensure_member`), so nothing double-counts.
        """
        by_member: Dict[str, List[Tuple[Assignment, float]]] = defaultdict(list)
        count = 0
        for assignment in list(self.cache.assignments()):
            for member_id, support in self.cache.answers_for(assignment):
                self.queue.preload(assignment, member_id, support)
                by_member[member_id].append((assignment, support))
                count += 1
        self._cached_by_member = dict(by_member)
        self.resumed_answers = count
        return count

    def ensure_member(self, member_id: str) -> None:
        """Register a member; on resumed sessions, seed their cached answers."""
        fresh = not self.queue.is_registered(member_id)
        self.queue.register_member(member_id)
        if fresh:
            for assignment, support in self._cached_by_member.get(member_id, ()):
                self.queue.mark_answered(member_id, assignment, support)

    def complete(self) -> bool:
        if self.state is not SessionState.OPEN:
            return False
        self.state = SessionState.COMPLETED
        return True

    def cancel(self) -> bool:
        if self.state is not SessionState.OPEN:
            return False
        self.state = SessionState.CANCELLED
        return True

    @property
    def open(self) -> bool:
        return self.state is SessionState.OPEN

    # -------------------------------------------------------------- dispatch

    def next_fresh(
        self, member_id: str, k: int, exclude: Collection[Assignment] = ()
    ) -> List[Assignment]:
        """Up to ``k`` not-yet-dispatched nodes for ``member_id``."""
        if self.state is not SessionState.OPEN:
            return []
        return self.queue.next_batch(member_id, k, exclude=exclude)

    def submit(
        self, member_id: str, assignment: Assignment, support: float
    ) -> AnswerOutcome:
        if self.state is not SessionState.OPEN:
            return AnswerOutcome.STALE
        outcome = self.queue.submit_support(member_id, support, assignment)
        if outcome is AnswerOutcome.RECORDED:
            self._note_recorded()
        return outcome

    def prune(
        self, member_id: str, value: Term, assignment: Assignment
    ) -> AnswerOutcome:
        if self.state is not SessionState.OPEN:
            return AnswerOutcome.STALE
        outcome = self.queue.submit_prune(member_id, value, assignment)
        if outcome is AnswerOutcome.PRUNED:
            self._note_recorded()
        return outcome

    def expire(self, member_id: str, assignment: Assignment) -> None:
        """Return a timed-out question to the member's queue."""
        self.queue.expire_pending(member_id, assignment)

    def reassign(self, member_id: str, assignment: Assignment) -> bool:
        """Queue an abandoned node for another member."""
        if self.state is not SessionState.OPEN:
            return False
        return self.queue.requeue_for(member_id, assignment)

    def detach(self, member_id: str) -> None:
        """Release the member's traversal structures."""
        self.queue.detach_member(member_id)

    # ------------------------------------------------------------ completion

    def has_work(self, member_ids: Iterable[str]) -> bool:
        """Could any of the given members still be asked something fresh?

        Questions still handed out are the caller's to check
        (:meth:`SessionManager._maybe_complete` looks at its in-flight
        table first).
        """
        return any(self.queue.has_fresh_work(m) for m in member_ids)

    # --------------------------------------------------------------- results

    def msps(self) -> List[Assignment]:
        """All confirmed MSPs so far (valid and near-miss)."""
        return self.queue.current_msps()

    def valid_msps(self) -> List[Assignment]:
        return self.queue.current_valid_msps()

    def questions_asked(self) -> int:
        return self.queue.questions_asked

    def result(self) -> QueryResult:
        """The session's answer set as a standard :class:`QueryResult`."""
        return build_result(
            self.query,
            self.queue.space,
            self.queue.current_msps(),
            self.queue.questions_asked,
            support_of=self.queue.aggregator.average_support,
            include_invalid=self.include_invalid,
        )

    def snapshot(self) -> CrowdCache:
        """A point-in-time copy of the session's answer cache.

        Feeding the copy to ``create_session(..., cache=snapshot,
        resume=True)`` later reconstructs the aggregator state without
        re-asking the crowd.
        """
        return self.cache.snapshot()

    # ----------------------------------------------------------- checkpoints

    def enable_checkpoints(
        self, path: Union[str, "os.PathLike[str]"], *, every: int = 10
    ) -> None:
        """Write a session checkpoint to ``path`` every ``every`` answers.

        The checkpoint is tiny metadata (query text, sample size, session
        id) written atomically; the *answers* live in the WAL journal.
        Together they are everything :func:`repro.service.recovery.
        restore_session` needs to resume a killed process.  Requires the
        session to know its ``query_text``.
        """
        if every < 1:
            raise ValueError("every must be at least 1")
        if self.query_text is None:
            raise ValueError(
                "checkpointing requires query_text (create the session "
                "from an OASSIS-QL string, not a parsed Query)"
            )
        self._checkpoint_path = os.fspath(path)
        self._checkpoint_every = every
        self.write_checkpoint()

    def checkpoint_payload(self) -> Dict[str, object]:
        """The JSON-serializable restore metadata (see ``docs/RELIABILITY.md``)."""
        return {
            "version": CHECKPOINT_VERSION,
            "session_id": self.session_id,
            "query": self.query_text,
            "sample_size": self.sample_size,
            "include_invalid": self.include_invalid,
            "questions_asked": self.queue.questions_asked,
            "state": self.state.value,
        }

    def write_checkpoint(self) -> bool:
        """Force a checkpoint write now; False when checkpointing is off."""
        if self._checkpoint_path is None:
            return False
        payload = self.checkpoint_payload()
        atomic_write_json(self._checkpoint_path, payload)
        self._recorded_since_checkpoint = 0
        _obs_count("recovery.checkpoints.written")
        return True

    def _note_recorded(self) -> None:
        """Count an applied answer; periodically checkpoint."""
        if self._checkpoint_path is None:
            return
        self._recorded_since_checkpoint += 1
        if self._recorded_since_checkpoint >= self._checkpoint_every:
            self.write_checkpoint()
