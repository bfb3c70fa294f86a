"""Crowd substrate: personal DBs, questions, members, aggregation, caching."""

from .aggregator import (
    Aggregator,
    FixedSampleAggregator,
    MajorityAggregator,
    TrustWeightedAggregator,
    Verdict,
)
from .cache import CrowdCache
from .journal import (
    AppendLog,
    DurableCrowdCache,
    JournalRecord,
    replay_journal,
    replay_log,
)
from .member import CrowdMember, OracleMember, SpammerMember
from .personal_db import PersonalDatabase, Transaction
from .questions import (
    FREQUENCY_SCALE,
    Answer,
    ConcreteQuestion,
    NoneOfTheseAnswer,
    PruneAnswer,
    Question,
    QuestionKind,
    SpecializationAnswer,
    SpecializationQuestion,
    SupportAnswer,
    frequency_to_support,
    quantize_support,
    support_to_frequency,
)
from .selection import consistency_violation_ratio, filter_members, trust_scores
from .simulation import CrowdSimulator, PlantedPattern

__all__ = [
    "FREQUENCY_SCALE",
    "Aggregator",
    "Answer",
    "ConcreteQuestion",
    "CrowdCache",
    "CrowdMember",
    "CrowdSimulator",
    "DurableCrowdCache",
    "FixedSampleAggregator",
    "AppendLog",
    "JournalRecord",
    "MajorityAggregator",
    "NoneOfTheseAnswer",
    "OracleMember",
    "PersonalDatabase",
    "PlantedPattern",
    "PruneAnswer",
    "Question",
    "QuestionKind",
    "SpammerMember",
    "SpecializationAnswer",
    "SpecializationQuestion",
    "SupportAnswer",
    "Transaction",
    "TrustWeightedAggregator",
    "Verdict",
    "consistency_violation_ratio",
    "filter_members",
    "frequency_to_support",
    "quantize_support",
    "replay_journal",
    "replay_log",
    "support_to_frequency",
    "trust_scores",
]
