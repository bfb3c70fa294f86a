"""Mining algorithms: vertical (Alg. 1), multi-user, baselines, itemsets."""

from .horizontal import horizontal_mine
from .itemsets import (
    extend_with_ancestors,
    frequent_itemsets,
    generalized_frequent_itemsets,
    maximal_fact_sets,
    mine_frequent_fact_sets,
)
from .msp import (
    brute_force_msps,
    downward_closed,
    maximal_nodes,
    minimal_nodes,
    negative_border,
)
from .multiuser import (
    FunctionUser,
    MultiUserMiner,
    MultiUserResult,
    QuestionStats,
    UserOracle,
)
from .naive import naive_mine
from .replay import ReplayResult, replay_from_cache
from .rules import AssociationRule, mine_association_rules
from .topk import assignment_distance, diversify, vertical_mine_top_k
from .state import ClassificationState, Status
from .trace import (
    MiningResult,
    MiningTrace,
    MspTracker,
    Probe,
    TargetTracker,
    TracePoint,
    ValidProgress,
)
from .vertical import find_minimal_unclassified, vertical_mine, vertical_walk

__all__ = [
    "AssociationRule",
    "ClassificationState",
    "FunctionUser",
    "MiningResult",
    "MiningTrace",
    "MspTracker",
    "MultiUserMiner",
    "MultiUserResult",
    "Probe",
    "QuestionStats",
    "ReplayResult",
    "Status",
    "TargetTracker",
    "TracePoint",
    "UserOracle",
    "ValidProgress",
    "assignment_distance",
    "brute_force_msps",
    "diversify",
    "downward_closed",
    "extend_with_ancestors",
    "find_minimal_unclassified",
    "frequent_itemsets",
    "generalized_frequent_itemsets",
    "horizontal_mine",
    "maximal_fact_sets",
    "maximal_nodes",
    "mine_frequent_fact_sets",
    "mine_association_rules",
    "minimal_nodes",
    "naive_mine",
    "replay_from_cache",
    "negative_border",
    "vertical_mine",
    "vertical_mine_top_k",
    "vertical_walk",
]
