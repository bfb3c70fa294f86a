"""Figure 4a–4e: crowd statistics and pace of data collection.

For each domain (travel / culinary / self-treatment):

* run the multi-user algorithm over a simulated crowd at threshold 0.2,
  recording every answer in a :class:`CrowdCache`;
* replay the cached answers at thresholds 0.3 / 0.4 / 0.5, counting only
  the answers the algorithm uses at each threshold (Section 6.3);
* report #MSPs, #valid MSPs, #questions and baseline% per threshold
  (Figures 4a–4c), where the baseline algorithm asks ``sample_size``
  questions for every valid assignment the run generated;
* extract the pace-of-collection series (questions vs. % classified /
  % MSPs discovered) from the threshold-0.2 trace (Figures 4d–4e).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..assignments.generator import QueryAssignmentSpace
from ..crowd.aggregator import FixedSampleAggregator
from ..crowd.cache import CrowdCache
from ..datasets.base import DomainDataset
from ..engine.adapters import MemberUser
from ..engine.config import EngineConfig
from ..engine.engine import OassisEngine
from ..mining.multiuser import MultiUserMiner
from ..mining.trace import MiningTrace
from .reporting import format_table


class ThresholdRow:
    """One bar group of Figures 4a–4c."""

    def __init__(
        self,
        threshold: float,
        msps: int,
        valid_msps: int,
        questions: int,
        baseline_questions: int,
    ):
        self.threshold = threshold
        self.msps = msps
        self.valid_msps = valid_msps
        self.questions = questions
        self.baseline_questions = baseline_questions

    @property
    def baseline_percent(self) -> float:
        if self.baseline_questions == 0:
            return 0.0
        return 100.0 * self.questions / self.baseline_questions

    def as_tuple(self) -> Tuple[float, int, int, int, float]:
        return (
            self.threshold,
            self.msps,
            self.valid_msps,
            self.questions,
            self.baseline_percent,
        )


class DomainRun:
    """The full Figure 4 data for one domain."""

    def __init__(
        self,
        name: str,
        rows: Sequence[ThresholdRow],
        trace: MiningTrace,
        total_msps: int,
        total_valid_msps: int,
        total_classified_valid: int,
        answer_stats: Dict[str, int],
    ):
        self.name = name
        self.rows = list(rows)
        self.trace = trace
        self.total_msps = total_msps
        self.total_valid_msps = total_valid_msps
        self.total_classified_valid = total_classified_valid
        self.answer_stats = dict(answer_stats)

    def crowd_stats_table(self) -> str:
        headers = ["threshold", "#MSPs", "#valid", "#questions", "baseline%"]
        rows = [
            (r.threshold, r.msps, r.valid_msps, r.questions, f"{r.baseline_percent:.1f}%")
            for r in self.rows
        ]
        return format_table(headers, rows, title=f"Crowd statistics — {self.name}")

    def pace_series(
        self, fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0)
    ) -> Dict[str, List[Tuple[float, Optional[int]]]]:
        """Questions needed to reach each fraction of the three series."""
        series: Dict[str, List[Tuple[float, Optional[int]]]] = {
            "classified assignments": [],
            "valid MSPs": [],
            "all MSPs": [],
        }
        for fraction in fractions:
            series["classified assignments"].append(
                (fraction, self._questions_to(fraction, "classified_valid",
                                              self.total_classified_valid))
            )
            series["valid MSPs"].append(
                (fraction, self._questions_to(fraction, "valid_msps_found",
                                              self.total_valid_msps))
            )
            series["all MSPs"].append(
                (fraction, self._questions_to(fraction, "msps_found", self.total_msps))
            )
        return series

    def _questions_to(self, fraction: float, field: str, total: int) -> Optional[int]:
        if total == 0:
            return 0
        needed = fraction * total
        for point in self.trace.points:
            if getattr(point, field) >= needed:
                return point.questions
        return None

    def pace_table(self, fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0)) -> str:
        series = self.pace_series(fractions)
        headers = ["% discovered"] + [f"{f:.0%}" for f in fractions]
        rows = []
        for label, points in series.items():
            rows.append(
                [label] + ["-" if q is None else str(q) for _, q in points]
            )
        return format_table(headers, rows, title=f"Pace of data collection — {self.name}")


def run_domain(
    dataset: DomainDataset,
    thresholds: Sequence[float] = (0.2, 0.3, 0.4, 0.5),
    crowd_size: int = 25,
    sample_size: int = 5,
    seed: int = 0,
    max_values_per_var: int = 2,
    max_more_facts: int = 1,
    transactions: int = 40,
) -> DomainRun:
    """Execute the Figure 4 protocol for one domain."""
    base_threshold = min(thresholds)
    engine = OassisEngine(
        dataset.ontology,
        config=EngineConfig(
            max_values_per_var=max_values_per_var,
            max_more_facts=max_more_facts,
        ),
    )
    query = engine.parse(dataset.query(base_threshold))
    # MORE extensions enter via crowd proposals (the "more" button), not a
    # pre-enumerated pool — enumerating the pool at every node would multiply
    # the question load the way the paper's UI does not
    space = engine.build_space(query)
    crowd = dataset.build_crowd(
        size=crowd_size, seed=seed, transactions=transactions
    )
    cache = CrowdCache()
    aggregator = FixedSampleAggregator(base_threshold, sample_size=sample_size)
    users = [MemberUser(member, space) for member in crowd]
    valid_base = space.valid_base_assignments()
    miner = MultiUserMiner(
        space,
        users,
        aggregator,
        cache=cache,
        valid_nodes=valid_base,
    )
    base_result = miner.run()

    rows: List[ThresholdRow] = []
    member_ids = [m.member_id for m in crowd]
    for threshold in sorted(thresholds):
        if threshold == base_threshold:
            result = base_result
            run_space = space
        else:
            _, result = engine.replay(
                query,
                member_ids,
                cache,
                threshold=threshold,
                sample_size=sample_size,
                space=space,
            )
            run_space = space
        baseline = sample_size * _generated_valid_count(run_space)
        rows.append(
            ThresholdRow(
                threshold,
                len(result.msps),
                len(result.valid_msps),
                result.questions,
                baseline,
            )
        )

    answer_stats = base_result.stats.as_dict()
    classified_valid_total = (
        base_result.trace.points[-1].classified_valid if base_result.trace.points else 0
    )
    return DomainRun(
        dataset.name,
        rows,
        base_result.trace,
        total_msps=len(base_result.msps),
        total_valid_msps=len(base_result.valid_msps),
        total_classified_valid=classified_valid_total,
        answer_stats=answer_stats,
    )


def _generated_valid_count(space: QueryAssignmentSpace) -> int:
    """Valid assignments among the nodes the run generated.

    The paper feeds the baseline only the assignments-with-multiplicities
    the real algorithm generated, "for fairness"; we count validity over
    the base (multiplicity-1) assignments plus every node materialized by
    the lazy generator during the run.
    """
    generated = set(space.valid_base_assignments())
    generated.update(space.materialized_nodes())
    return sum(1 for node in generated if space.is_valid(node))
