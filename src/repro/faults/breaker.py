"""Per-member circuit breaker: quarantine instead of burning retries.

The :class:`~repro.service.manager.SessionManager` keeps one
:class:`CircuitBreaker` per attached member.  Every dispatch outcome
feeds it: a recorded/pruned/passed answer is a success, a reaped timeout
or a rejected (malformed) answer is a failure.  When the failure rate
over a sliding window crosses the threshold the breaker *opens*: the
member is quarantined — ``next_batch`` short-circuits to an empty batch
— so their questions are reassigned to healthy members instead of being
retried against a black hole.  After a cooldown the breaker goes
*half-open* and admits exactly one probe question; a success closes the
breaker, a failure re-opens it for another cooldown.

The state machine is pure and clock-injected (every transition takes an
explicit ``now``), so tests drive it deterministically.  Transitions
emit ``recovery.breaker.*`` counters.  The breaker is not synchronized:
its :class:`~repro.service.manager.SessionManager` owns it on one thread.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Optional

from ..observability import count as _obs_count


class BreakerState(enum.Enum):
    """Where a member's breaker is in its quarantine cycle."""

    #: healthy: dispatch freely
    CLOSED = "closed"
    #: quarantined: no questions until the cooldown elapses
    OPEN = "open"
    #: probing: exactly one question in flight decides the next state
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Error-rate window → quarantine with half-open probing."""

    def __init__(
        self,
        *,
        window: int = 8,
        failure_threshold: float = 0.5,
        cooldown: float = 5.0,
        min_events: int = 4,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        if min_events < 1:
            raise ValueError("min_events must be at least 1")
        self.window = window
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.min_events = min_events
        self.state = BreakerState.CLOSED
        self.opened_count = 0
        self._events: Deque[bool] = deque(maxlen=window)  # True = failure
        self._open_until = 0.0
        self._probe_outstanding = False

    # --------------------------------------------------------------- feeding

    def record_success(self, now: float) -> None:
        """A dispatched question came back well-formed and in time."""
        if self.state is BreakerState.HALF_OPEN:
            self._close()
            return
        self._events.append(False)

    def record_failure(self, now: float) -> None:
        """A timeout or malformed answer; may trip the breaker."""
        if self.state is BreakerState.HALF_OPEN:
            self._open(now)
            return
        self._events.append(True)
        if self.state is not BreakerState.CLOSED:
            return
        if len(self._events) < self.min_events:
            return
        failures = sum(1 for failed in self._events if failed)
        if failures / len(self._events) >= self.failure_threshold:
            self._open(now)

    # ------------------------------------------------------------ dispatching

    def allow(self, now: float) -> bool:
        """May the member be handed questions right now?

        In ``OPEN`` state this transitions to ``HALF_OPEN`` once the
        cooldown has elapsed and admits a single probe; further calls
        return False until the probe's outcome is recorded.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now < self._open_until:
                return False
            self.state = BreakerState.HALF_OPEN
            self._probe_outstanding = True
            _obs_count("recovery.breaker.half_open")
            return True
        # HALF_OPEN: one probe at a time
        if self._probe_outstanding:
            return False
        self._probe_outstanding = True
        return True

    def probe_aborted(self) -> None:
        """The admitted half-open probe was never dispatched; allow another."""
        if self.state is BreakerState.HALF_OPEN:
            self._probe_outstanding = False

    @property
    def reopens_at(self) -> Optional[float]:
        """When an open breaker admits its probe; None unless open."""
        return self._open_until if self.state is BreakerState.OPEN else None

    # ------------------------------------------------------------ transitions

    def _open(self, now: float) -> None:
        self.state = BreakerState.OPEN
        self.opened_count += 1
        self._open_until = now + self.cooldown
        self._probe_outstanding = False
        self._events.clear()
        _obs_count("recovery.breaker.opened")

    def _close(self) -> None:
        self.state = BreakerState.CLOSED
        self._probe_outstanding = False
        self._events.clear()
        _obs_count("recovery.breaker.closed")

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.state.value}, opened={self.opened_count}, "
            f"window={list(self._events)})"
        )
