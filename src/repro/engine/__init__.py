"""Engine layer: full pipeline, crowd adapters, queue manager, results.

The public facade of the reproduction: :class:`OassisEngine` configured by
an :class:`EngineConfig`, the interactive :class:`QueueManager` speaking
the session vocabulary (:meth:`~QueueManager.next_batch`,
:class:`AnswerOutcome`), and :class:`QueryResult` rows.  The concurrent
crowd-serving layer on top lives in :mod:`repro.service`.
"""

from .adapters import MemberUser
from .config import EngineConfig
from .engine import OassisEngine
from .queue_manager import AnswerOutcome, PendingQuestion, QueueManager
from .results import QueryResult, ResultRow, build_result

__all__ = [
    "AnswerOutcome",
    "EngineConfig",
    "MemberUser",
    "OassisEngine",
    "PendingQuestion",
    "QueryResult",
    "QueueManager",
    "ResultRow",
    "build_result",
]
