"""Engine layer: full pipeline, crowd adapters, queue manager, results.

The public facade of the reproduction: :class:`OassisEngine` configured by
an :class:`EngineConfig`, the served walk :class:`QueueManager`
(:meth:`~QueueManager.next_batch` pops askable nodes, answers come back
as an :class:`AnswerOutcome`), and :class:`QueryResult` rows.  The concurrent
crowd-serving layer on top lives in :mod:`repro.service`.
"""

from .adapters import MemberUser
from .config import EngineConfig
from .engine import OassisEngine
from .queue_manager import AnswerOutcome, QueueManager
from .results import QueryResult, ResultRow, build_result

__all__ = [
    "AnswerOutcome",
    "EngineConfig",
    "MemberUser",
    "OassisEngine",
    "QueryResult",
    "QueueManager",
    "ResultRow",
    "build_result",
]
