"""Classification bookkeeping and the Observation 4.4 inference scheme.

Every answer classifies more than the asked node: a significant answer
classifies the whole *down-set* (all more-general assignments) as
significant, an insignificant one classifies the *up-set* (all more-specific
assignments) as insignificant.  :class:`ClassificationState` records the
classification witnesses and answers status queries.

Three strategies:

* when the space exposes ``ancestors``/``descendants`` (an
  :class:`~repro.assignments.lattice.ExplicitDAG`), classifications are
  propagated eagerly into plain sets — O(1) status checks, which the large
  synthetic runs need;
* otherwise witnesses are kept in append-only logs.  A lazy query space
  (:class:`~repro.assignments.generator.QueryAssignmentSpace`) supplies a
  :class:`~repro.assignments.generator.WitnessIndex` over them: per
  (variable, value set) and per MORE-fact set, a bitmask of the witnesses
  that term of Def. 4.1 relates to, grown as the logs grow, so a status
  check is a few ANDs instead of one ``leq`` per logged witness;
* a space without an index (the tests' wrappers) scans the logs with
  ``leq`` instead.

With logs, every queried node remembers the log lengths (and, with an
index, the order stamp) at which it was last found UNKNOWN, and answers
UNKNOWN again without looking while they stand; the scan resumes from
there, so each (node, witness) pair is compared at most once.

Significance is final in every strategy: once a node's status is
SIGNIFICANT it stays so, even if the node is later marked insignificant
(that mark still classifies the rest of its up-set).  The
:class:`~repro.mining.trace.MspTracker` relies on it to drop refuted
candidates.

A :class:`ClassificationState` is *not* synchronized — even ``status()``
mutates memo structures — and each query session owns its own.  The
serving layer touches them from one thread only; see "One thread, one
virtual clock" in ``docs/SERVICE.md``.
"""

from __future__ import annotations

import enum
from typing import Dict, Generic, Hashable, List, Set, TypeVar

from ..assignments.lattice import AssignmentSpace
from ..observability import count as _obs_count, enabled as _obs_enabled

Node = TypeVar("Node", bound=Hashable)


class Status(enum.Enum):
    SIGNIFICANT = "significant"
    INSIGNIFICANT = "insignificant"
    UNKNOWN = "unknown"


class ClassificationState(Generic[Node]):
    """Tracks which assignments are classified, with inference closure."""

    def __init__(self, space: AssignmentSpace[Node]):
        self.space = space
        self._fast = hasattr(space, "ancestors") and hasattr(space, "descendants")
        if self._fast:
            self._significant: Set[Node] = set()
            self._insignificant: Set[Node] = set()
        else:
            # append-only witness logs; _checked[n] = how far n has compared
            self._sig_log: List[Node] = []
            self._insig_log: List[Node] = []
            self._status_cache: Dict[Node, Status] = {}
            self._checked: Dict[Node, tuple] = {}
            witness_index = getattr(space, "witness_index", None)
            self._index = (
                witness_index(self._sig_log, self._insig_log)
                if witness_index is not None
                else None
            )

    # ------------------------------------------------------------- marking

    def mark_significant(self, node: Node) -> None:
        """Record that ``node`` is significant; classifies its down-set."""
        if self._fast:
            if not _obs_enabled():
                self._significant.update(self.space.ancestors(node))  # type: ignore[attr-defined]
                return
            added = self.space.ancestors(node) - self._significant  # type: ignore[attr-defined]
            if added:
                self._significant |= added
                inferred = len(added) - (1 if node in added else 0)
                if inferred:
                    _obs_count("mining.inferred.significant", inferred)
            return
        if self.status(node) is Status.SIGNIFICANT:
            return  # already implied by an earlier witness
        self._status_cache[node] = Status.SIGNIFICANT
        self._sig_log.append(node)

    def mark_insignificant(self, node: Node) -> None:
        """Record that ``node`` is insignificant; classifies its up-set."""
        if self._fast:
            if not _obs_enabled():
                self._insignificant.update(self.space.descendants(node))  # type: ignore[attr-defined]
                return
            added = self.space.descendants(node) - self._insignificant  # type: ignore[attr-defined]
            if added:
                self._insignificant |= added
                inferred = len(added) - (1 if node in added else 0)
                if inferred:
                    _obs_count("mining.inferred.insignificant", inferred)
            return
        current = self.status(node)
        if current is Status.INSIGNIFICANT:
            return
        if current is Status.UNKNOWN:  # significant is final
            self._status_cache[node] = Status.INSIGNIFICANT
        self._insig_log.append(node)

    # -------------------------------------------------------------- queries

    def status(self, node: Node) -> Status:
        if self._fast:
            if node in self._significant:
                return Status.SIGNIFICANT
            if node in self._insignificant:
                return Status.INSIGNIFICANT
            return Status.UNKNOWN
        cached = self._status_cache.get(node)
        if cached is not None:
            return cached
        index = self._index
        if index is None:
            return self._scan(node)
        mark = (len(self._sig_log), len(self._insig_log), index.stamp())
        if self._checked.get(node) == mark:
            return Status.UNKNOWN  # nothing logged or re-ordered since
        if index.leq_significant(node):
            self._status_cache[node] = Status.SIGNIFICANT
            _obs_count("mining.inferred.significant")
            return Status.SIGNIFICANT
        if index.geq_insignificant(node):
            self._status_cache[node] = Status.INSIGNIFICANT
            _obs_count("mining.inferred.insignificant")
            return Status.INSIGNIFICANT
        self._checked[node] = mark
        return Status.UNKNOWN

    def _scan(self, node: Node) -> Status:
        """Compare ``node`` with the witnesses logged since it last looked."""
        sig_from, insig_from = self._checked.get(node, (0, 0))
        leq = self.space.leq
        for index in range(sig_from, len(self._sig_log)):
            if leq(node, self._sig_log[index]):
                # resolved through a witness: classified without a question
                self._status_cache[node] = Status.SIGNIFICANT
                _obs_count("mining.inferred.significant")
                return Status.SIGNIFICANT
        for index in range(insig_from, len(self._insig_log)):
            if leq(self._insig_log[index], node):
                self._status_cache[node] = Status.INSIGNIFICANT
                _obs_count("mining.inferred.insignificant")
                return Status.INSIGNIFICANT
        self._checked[node] = (len(self._sig_log), len(self._insig_log))
        return Status.UNKNOWN

    def is_classified(self, node: Node) -> bool:
        return self.status(node) is not Status.UNKNOWN

    def is_significant(self, node: Node) -> bool:
        return self.status(node) is Status.SIGNIFICANT

    def is_insignificant(self, node: Node) -> bool:
        return self.status(node) is Status.INSIGNIFICANT

    def significant_witnesses(self) -> List[Node]:
        """The maximal recorded significant nodes (an antichain)."""
        if self._fast:
            return list(self._significant)
        leq = self.space.leq
        return [
            w
            for w in self._sig_log
            if not any(w != v and leq(w, v) for v in self._sig_log)
        ]
