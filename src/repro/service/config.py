"""Tunables of the concurrent crowd-serving layer."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class ServiceConfig:
    """Dispatch, deadline and retry policy of a :class:`SessionManager`.

    All times are in the units of the manager's injected clock (seconds
    for the default ``time.monotonic``).
    """

    #: how long a dispatched question may stay unanswered before it is
    #: reaped, requeued and (eventually) reassigned.  The window scales
    #: with the question's position in the member's in-flight queue: the
    #: n-th simultaneously held question gets ``n * question_timeout``,
    #: because a member answering a batch serially cannot start question
    #: n before finishing the n-1 before it
    question_timeout: float = 30.0
    #: how many times the *same* member is asked the same question before
    #: the node is abandoned for them and reassigned to another member
    max_attempts: int = 3
    #: first retry waits ``backoff_base``; attempt ``n`` waits
    #: ``backoff_base * 2 ** (n - 1)`` before the question is re-dispatched
    #: to the same member (exponential backoff)
    backoff_base: float = 0.25
    #: cap on a member's simultaneously outstanding questions, summed
    #: across every session they serve
    in_flight_limit: int = 4
    #: default ``k`` of :meth:`SessionManager.next_batch`
    batch_size: int = 2
    #: sliding window (events) of the per-member circuit breaker;
    #: 0 disables the breaker entirely (the default — opt-in feature)
    breaker_window: int = 0
    #: failure rate over the window that trips the breaker open
    breaker_failure_threshold: float = 0.5
    #: quarantine duration before a half-open probe is admitted
    breaker_cooldown: float = 5.0
    #: minimum events in the window before the rate is meaningful
    breaker_min_events: int = 4

    def __post_init__(self) -> None:
        if self.question_timeout <= 0:
            raise ValueError("question_timeout must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        if self.in_flight_limit < 1:
            raise ValueError("in_flight_limit must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.breaker_window < 0:
            raise ValueError("breaker_window must be non-negative (0 disables)")
        if not 0.0 < self.breaker_failure_threshold <= 1.0:
            raise ValueError("breaker_failure_threshold must be in (0, 1]")
        if self.breaker_cooldown < 0:
            raise ValueError("breaker_cooldown must be non-negative")
        if self.breaker_min_events < 1:
            raise ValueError("breaker_min_events must be at least 1")

    def override(self, **changes: object) -> "ServiceConfig":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)
