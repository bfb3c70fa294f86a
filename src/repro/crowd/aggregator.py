"""Black-box answer aggregators (Section 4.2).

The multi-user algorithm delegates two decisions to a pluggable black box:
(i) have enough answers been gathered for an assignment, and (ii) is the
assignment overall significant?  The paper's crowd experiments use the
simplest instance — five answers, average against the threshold — which is
:class:`FixedSampleAggregator`.  Alternative boxes (majority vote,
trust-weighted average) are provided as the paper suggests.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from ..observability import count as _obs_count


class Verdict(enum.Enum):
    """The aggregator's decision about an assignment."""

    SIGNIFICANT = "significant"
    INSIGNIFICANT = "insignificant"
    UNDECIDED = "undecided"


class Aggregator:
    """Base class: collects per-assignment answers and renders verdicts.

    A verdict is final: once ``sample_size`` answers decide an assignment,
    later answers for it are dropped, so neither the verdict nor the
    reported average can move after the decision.
    """

    def __init__(self, threshold: float, sample_size: int = 5):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        if sample_size < 1:
            raise ValueError("sample_size must be positive")
        self.threshold = threshold
        self.sample_size = sample_size
        # assignment -> list of (member_id, support)
        self._answers: Dict[Hashable, List[Tuple[str, float]]] = defaultdict(list)

    def add_answer(self, assignment: Hashable, member_id: str, support: float) -> None:
        """Record one member's answer for ``assignment`` unless it is decided."""
        answers = self._answers[assignment]
        if (
            len(answers) >= self.sample_size
            and self.verdict(assignment) is not Verdict.UNDECIDED
        ):
            return
        answers.append((member_id, support))
        _obs_count("aggregator.answers")

    def answers(self, assignment: Hashable) -> List[Tuple[str, float]]:
        return list(self._answers.get(assignment, ()))

    def answer_count(self, assignment: Hashable) -> int:
        return len(self._answers.get(assignment, ()))

    def total_answers(self) -> int:
        return sum(len(answers) for answers in self._answers.values())

    def has_answered(self, assignment: Hashable, member_id: str) -> bool:
        return any(m == member_id for m, _ in self._answers.get(assignment, ()))

    def verdict(self, assignment: Hashable) -> Verdict:
        raise NotImplementedError

    def average_support(self, assignment: Hashable) -> Optional[float]:
        answers = self._answers.get(assignment)
        if not answers:
            return None
        return sum(s for _, s in answers) / len(answers)


class FixedSampleAggregator(Aggregator):
    """The paper's black box: ``sample_size`` answers, then average.

    Undecided until ``sample_size`` answers have been collected; then
    significant iff the average support meets the threshold.
    """

    def verdict(self, assignment: Hashable) -> Verdict:
        answers = self._answers.get(assignment, ())
        if len(answers) < self.sample_size:
            return Verdict.UNDECIDED
        average = sum(s for _, s in answers) / len(answers)
        return Verdict.SIGNIFICANT if average >= self.threshold else Verdict.INSIGNIFICANT


class MajorityAggregator(Aggregator):
    """Significant iff a majority of ``sample_size`` answers individually pass."""

    def verdict(self, assignment: Hashable) -> Verdict:
        answers = self._answers.get(assignment, ())
        if len(answers) < self.sample_size:
            return Verdict.UNDECIDED
        passing = sum(1 for _, s in answers if s >= self.threshold)
        return (
            Verdict.SIGNIFICANT
            if passing * 2 > len(answers)
            else Verdict.INSIGNIFICANT
        )


class TrustWeightedAggregator(Aggregator):
    """Average weighted by per-member trust scores (default trust 1.0).

    A sample whose members all have zero trust decides nothing, so the
    assignment keeps taking answers until one carries weight.
    """

    def __init__(
        self,
        threshold: float,
        sample_size: int = 5,
        trust: Optional[Mapping[str, float]] = None,
    ):
        super().__init__(threshold, sample_size)
        self.trust: Dict[str, float] = dict(trust) if trust else {}

    def set_trust(self, member_id: str, trust: float) -> None:
        self.trust[member_id] = trust

    def verdict(self, assignment: Hashable) -> Verdict:
        answers = self._answers.get(assignment, ())
        if len(answers) < self.sample_size:
            return Verdict.UNDECIDED
        total_weight = 0.0
        weighted_sum = 0.0
        for member_id, support in answers:
            weight = self.trust.get(member_id, 1.0)
            total_weight += weight
            weighted_sum += weight * support
        if total_weight <= 0.0:
            return Verdict.UNDECIDED
        average = weighted_sum / total_weight
        return Verdict.SIGNIFICANT if average >= self.threshold else Verdict.INSIGNIFICANT
