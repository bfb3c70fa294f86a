"""Execution traces and results shared by all mining algorithms.

The paper's pace-of-collection plots (Figures 4d–4f, 5) chart the number of
questions asked against the percentage of MSPs discovered / assignments
classified.  :class:`MiningTrace` records one sample per question so those
series can be reproduced exactly, and :class:`MspTracker` maintains the set
of *confirmed* MSPs incrementally (a significant node is a confirmed MSP
once every successor is classified insignificant).  :class:`Probe` bundles
them with the classification state and the question count: every miner
asks, marks and samples through one.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    TypeVar,
)

from ..assignments.lattice import AssignmentSpace
from ..observability import get_tracer
from .state import ClassificationState, Status

Node = TypeVar("Node", bound=Hashable)


class TracePoint(NamedTuple):
    """One sample of the execution trace, taken after a question."""

    questions: int
    msps_found: int
    valid_msps_found: int
    classified_valid: int
    #: of the experiment-supplied target MSPs, how many are known significant
    targets_found: int = 0


class MiningTrace:
    """The per-question progress series of one mining run."""

    def __init__(self) -> None:
        self.points: List[TracePoint] = []

    def sample(
        self,
        questions: int,
        msps: int,
        valid_msps: int,
        classified_valid: int,
        targets_found: int = 0,
    ) -> None:
        self.points.append(
            TracePoint(questions, msps, valid_msps, classified_valid, targets_found)
        )

    def questions_to_reach_msps(self, fraction: float, total_valid_msps: int) -> Optional[int]:
        """Questions needed to discover ``fraction`` of the valid MSPs."""
        if total_valid_msps == 0:
            return 0
        needed = fraction * total_valid_msps
        for point in self.points:
            if point.valid_msps_found >= needed:
                return point.questions
        return None

    def questions_to_reach_targets(self, fraction: float, total_targets: int) -> Optional[int]:
        """Questions needed to classify ``fraction`` of the target MSPs."""
        if total_targets == 0:
            return 0
        needed = fraction * total_targets
        for point in self.points:
            if point.targets_found >= needed:
                return point.questions
        return None

    def __len__(self) -> int:
        return len(self.points)


class MspTracker(Generic[Node]):
    """Maintains the confirmed-MSP set incrementally.

    A candidate (a node decided significant) is a confirmed MSP once every
    successor is classified insignificant.  Instead of re-expanding every
    candidate's successor list on each refresh, the tracker keeps a
    *pending frontier* per candidate — the successors not yet known
    insignificant — and each refresh only re-examines that shrinking set.
    Classification is monotone, so a successor leaves the frontier at most
    once and a candidate is confirmed exactly when its frontier drains.

    A candidate with a *significant* successor is refuted: significance is
    final in :class:`ClassificationState`, so that successor never turns
    insignificant and the candidate can never be an MSP.  A refresh drops
    it from the pending frontiers the first time it meets such a successor,
    so later scans only walk candidates that may still be confirmed.
    """

    def __init__(
        self,
        space: AssignmentSpace[Node],
        state: ClassificationState[Node],
        stride: int = 1,
    ):
        self.space = space
        self.state = state
        # nodes explicitly decided significant (by ask or aggregator verdict)
        self._significant_decided: Set[Node] = set()
        # candidate -> successors not yet classified insignificant
        self._pending: Dict[Node, List[Node]] = {}
        self._confirmed: Set[Node] = set()
        self._confirmed_valid: Set[Node] = set()
        self._stride = max(1, stride)
        self._calls = 0

    def note_significant(self, node: Node) -> None:
        """Register a node decided significant (candidate MSP)."""
        if node in self._significant_decided:
            return
        self._significant_decided.add(node)
        self._pending[node] = list(self.space.successors(node))

    def note_new_successor(self, node: Node, successor: Node) -> None:
        """Register a successor added to ``node`` after it became a candidate.

        Lazy spaces can grow mid-run (crowd-proposed MORE extensions); an
        unconfirmed candidate must then also see the new successor
        classified insignificant before it is confirmed.
        """
        pending = self._pending.get(node)
        if pending is not None and successor not in pending:
            pending.append(successor)

    def refresh(self, force: bool = False) -> None:
        """Advance the pending frontiers and confirm drained candidates.

        Like :class:`ValidProgress`, the scan is throttled to every
        ``stride`` calls; pass ``force=True`` before reading final results.
        """
        self._calls += 1
        if not force and self._stride > 1 and self._calls % self._stride != 1:
            return
        status = self.state.status
        for node in list(self._pending):
            remaining: List[Node] = []
            for successor in self._pending[node]:
                verdict = status(successor)
                if verdict is Status.SIGNIFICANT:
                    break  # refuted: a significant successor stays significant
                if verdict is Status.UNKNOWN:
                    remaining.append(successor)
            else:
                if remaining:
                    self._pending[node] = remaining
                    continue
                self._confirmed.add(node)
                if self.space.is_valid(node):
                    self._confirmed_valid.add(node)
            del self._pending[node]

    def confirmed(self) -> Set[Node]:
        return set(self._confirmed)

    def confirmed_valid(self) -> Set[Node]:
        return set(self._confirmed_valid)

    def counts(self) -> tuple:
        return (len(self._confirmed), len(self._confirmed_valid))


class MiningResult(Generic[Node]):
    """The outcome of one mining run."""

    def __init__(
        self,
        msps: Sequence[Node],
        valid_msps: Sequence[Node],
        questions: int,
        trace: MiningTrace,
        state: ClassificationState[Node],
    ):
        self.msps = list(msps)
        self.valid_msps = list(valid_msps)
        self.questions = questions
        self.trace = trace
        self.state = state

    def __repr__(self) -> str:
        return (
            f"MiningResult(msps={len(self.msps)}, valid={len(self.valid_msps)}, "
            f"questions={self.questions})"
        )


class TargetTracker(Generic[Node]):
    """Counts how many experiment-supplied target MSPs are known significant.

    The Figure 4d–4f / Figure 5 "% of (valid) MSPs discovered" series counts
    a planted MSP as discovered once the algorithm has classified it as
    significant; this is well-defined for every algorithm, including the
    naive baseline that never proves maximality explicitly.
    """

    def __init__(self, state: ClassificationState[Node], targets: Sequence[Node]):
        self.state = state
        self._pending: Set[Node] = set(targets)
        self.total = len(self._pending)
        self.found = 0

    def refresh(self) -> int:
        done = [n for n in self._pending if self.state.is_significant(n)]
        for node in done:
            self._pending.discard(node)
        self.found += len(done)
        return self.found


class ValidProgress(Generic[Node]):
    """Tracks how many of a fixed valid-node universe are classified.

    A full rescan of the pending set costs O(pending) status checks; with
    per-question sampling over large spaces that dominates the runtime, so
    the scan runs every ``stride`` calls (the in-between samples reuse the
    last count — pace curves lose at most ``stride`` questions of
    resolution).
    """

    def __init__(
        self,
        state: ClassificationState[Node],
        valid_nodes: Sequence[Node],
        stride: int = 1,
    ):
        self.state = state
        self._unclassified: Set[Node] = set(valid_nodes)
        self.total = len(self._unclassified)
        self.classified = 0
        self._stride = max(1, stride)
        self._calls = 0

    def refresh(self, force: bool = False) -> int:
        """Move newly classified nodes out of the pending set."""
        self._calls += 1
        if not force and self._calls % self._stride != 1 and self._stride > 1:
            return self.classified
        done = [n for n in self._unclassified if self.state.is_classified(n)]
        for node in done:
            self._unclassified.discard(node)
        self.classified += len(done)
        return self.classified


class Probe(Generic[Node]):
    """One mining run's bookkeeping: what it has asked and what it knows.

    Holds the run's :class:`ClassificationState`, :class:`MspTracker`,
    :class:`MiningTrace`, the optional :class:`ValidProgress` /
    :class:`TargetTracker` series and the question count, and does the
    steps every miner shares: :meth:`ask` a concrete question, :meth:`mark`
    a node by its answer (Observation 4.4 closure plus MSP candidacy),
    :meth:`sample` the trace, and assemble the :meth:`result`.

    ``oracle`` maps a node to its support; :meth:`ask` compares it with
    ``threshold``.  ``prune``, when given, is the §6.2 pruning click that
    may accompany a question: called after each answer, it returns nodes
    whose up-sets become insignificant at no question cost.
    ``stride``/``valid_stride`` throttle the tracker and progress scans.
    """

    def __init__(
        self,
        space: AssignmentSpace[Node],
        oracle: Optional[Callable[[Node], float]] = None,
        threshold: float = 0.0,
        *,
        prune: Optional[Callable[[Node], Iterable[Node]]] = None,
        stride: int = 1,
        valid_nodes: Optional[Sequence[Node]] = None,
        valid_stride: int = 1,
        target_msps: Optional[Sequence[Node]] = None,
    ):
        self.space = space
        self.oracle = oracle
        self.threshold = threshold
        self.prune = prune
        self.state: ClassificationState[Node] = ClassificationState(space)
        self.tracker: MspTracker[Node] = MspTracker(space, self.state, stride=stride)
        self.trace = MiningTrace()
        self.progress = (
            ValidProgress(self.state, valid_nodes, stride=valid_stride)
            if valid_nodes is not None
            else None
        )
        self.targets = (
            TargetTracker(self.state, target_msps) if target_msps is not None else None
        )
        self.questions = 0
        self._obs = get_tracer()

    def ask(self, node: Node) -> bool:
        """Pose one concrete question about ``node``; True = significant."""
        self.questions += 1
        obs = self._obs
        if obs is not None:
            obs.count("crowd.questions")
            obs.count("crowd.questions.concrete")
            obs.count("mining.classified.by_crowd")
        significant = self.oracle(node) >= self.threshold  # type: ignore[misc]
        self.mark(node, significant)
        if self.prune is not None:
            for pruned in self.prune(node):
                self.state.mark_insignificant(pruned)
        self.sample()
        return significant

    def mark(self, node: Node, significant: bool) -> None:
        """Classify ``node`` (and its down- or up-set) by an answer."""
        if significant:
            self.state.mark_significant(node)
            self.tracker.note_significant(node)
        else:
            self.state.mark_insignificant(node)

    def sample(self, force: bool = False) -> None:
        """Append one trace point; ``force`` bypasses the scan strides."""
        classified_valid = (
            self.progress.refresh(force) if self.progress is not None else 0
        )
        targets_found = self.targets.refresh() if self.targets is not None else 0
        self.tracker.refresh(force)
        confirmed, confirmed_valid = self.tracker.counts()
        self.trace.sample(
            self.questions, confirmed, confirmed_valid, classified_valid, targets_found
        )

    def result(
        self,
        msps: Optional[Sequence[Node]] = None,
        result_type: Callable[..., MiningResult[Node]] = MiningResult,
        **extra: object,
    ) -> MiningResult[Node]:
        """The run's :class:`MiningResult` (or ``result_type``).

        ``msps`` lists the MSPs a traversal reached, in order (repeats
        dropped); without it the tracker's confirmed set is reported,
        sorted by ``repr``.  ``extra`` goes to ``result_type``.
        """
        self.tracker.refresh(force=True)
        if msps is None:
            found = sorted(self.tracker.confirmed(), key=repr)
        else:
            found = list(dict.fromkeys(msps))
        valid = [n for n in found if self.space.is_valid(n)]
        if self._obs is not None:
            self._obs.count("mining.msps.found", len(found))
            self._obs.count("mining.msps.valid", len(valid))
        return result_type(found, valid, self.questions, self.trace, self.state, **extra)
