"""Figure 4f: effect of answer types (synthetic, single user).

Vertical-algorithm runs on the synthetic DAG with varying ratios of
specialization answers (0 / 10 / 50 / 100 %) and of user-guided pruning
clicks (25 / 50 %), measuring questions to discover X% of the valid MSPs.
Specialization answers are simulated by handing the algorithm a significant
successor of the current assignment (the paper's protocol); pruning clicks
classify a ground-truth-insignificant successor subtree for free.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from ..mining.vertical import vertical_mine
from ..synth.dag_gen import generate_dag
from ..synth.msp_placement import PlantedSignificance, place_msps
from .reporting import average_ignoring_none, format_table

#: The paper's six configurations, as (label, specialization, pruning).
CONFIGURATIONS = (
    ("100% closed", 0.0, 0.0),
    ("10% special.", 0.1, 0.0),
    ("50% special.", 0.5, 0.0),
    ("100% special.", 1.0, 0.0),
    ("25% pruning", 0.0, 0.25),
    ("50% pruning", 0.0, 0.5),
)


def _specialization_oracle(planted: PlantedSignificance):
    """Pick a ground-truth-significant candidate (the member's choice)."""

    def oracle(node: int, candidates: Sequence[int]) -> Optional[int]:
        for candidate in candidates:
            if planted.is_significant(candidate):
                return candidate
        return None

    return oracle


def _prune_oracle(planted: PlantedSignificance, dag, rng: random.Random):
    """One irrelevant (insignificant) successor per click, chosen at random."""

    def oracle(node: int) -> Sequence[int]:
        insignificant = [
            s for s in dag.successors(node) if not planted.is_significant(s)
        ]
        if not insignificant:
            return ()
        return (rng.choice(insignificant),)

    return oracle


def run_figure4f(
    width: int = 500,
    depth: int = 7,
    msp_fraction: float = 0.02,
    trials: int = 6,
    seed: int = 0,
    milestones: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    configurations=CONFIGURATIONS,
) -> Dict[str, Dict[float, Optional[float]]]:
    """Returns ``{configuration label: {milestone: avg questions}}``."""
    collected: Dict[str, Dict[float, List[Optional[int]]]] = {
        label: {m: [] for m in milestones} for label, _, _ in configurations
    }
    for trial in range(trials):
        dag = generate_dag(width=width, depth=depth, seed=seed + trial)
        msp_count = max(1, round(msp_fraction * len(dag)))
        planted = place_msps(
            dag, msp_count, policy="uniform", valid_only=True, seed=seed + trial
        )
        targets = planted.valid_msps()
        for index, (label, specialization, pruning) in enumerate(configurations):
            # seeded by position: str hashes are salted per process
            rng = random.Random((seed + trial) * 1000 + index)
            result = vertical_mine(
                dag,
                planted.support,
                0.5,
                specialization_oracle=_specialization_oracle(planted),
                specialization_ratio=specialization,
                prune_oracle=_prune_oracle(planted, dag, rng),
                pruning_ratio=pruning,
                rng=rng,
                target_msps=targets,
            )
            for m in milestones:
                collected[label][m].append(
                    result.trace.questions_to_reach_targets(m, len(targets))
                )
    return {
        label: {m: average_ignoring_none(values[m]) for m in values}
        for label, values in collected.items()
    }


def render_figure4f(results: Dict[str, Dict[float, Optional[float]]]) -> str:
    milestones = sorted(next(iter(results.values())).keys())
    headers = ["configuration"] + [f"{m:.0%}" for m in milestones]
    rows = []
    for label, values in results.items():
        rows.append(
            [label]
            + ["-" if values[m] is None else f"{values[m]:.0f}" for m in milestones]
        )
    return format_table(
        headers, rows, title="Figure 4f — effect of answer types (questions)"
    )
