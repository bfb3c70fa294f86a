"""ShardSupervisor: heartbeat monitoring + auto-restart over the fleet.

PR 7's chaos suite killed and resurrected shards *by hand* — a dead
shard stayed dead until a test harness called ``restore_shard``.  This
module closes the loop: a :class:`ShardSupervisor` attached to a
:class:`~repro.service.shard.coordinator.ShardCoordinator` is ticked
once per event-loop iteration (the coordinator stays single-threaded —
supervision is a poll, not a thread) and

* **detects death** three ways: the worker process exited (exit code),
  its socket hit EOF or a torn frame mid-serve (routed here via
  ``_on_shard_failure``), or the shard went silent and then missed a
  heartbeat — after ``heartbeat_interval`` without a frame the
  supervisor sends a ``ping``, and a ``pong`` not seen within
  ``heartbeat_timeout`` marks the shard unresponsive (the SIGSTOP'd
  hung-shard case) and kills it for real;
* **restarts** the dead shard through the coordinator's existing
  WAL-replay path (``restore_shard``), re-sending its in-flight asks;
  the detect→ready wall time is recorded as that incident's **MTTR**;
* **degrades** after the restart budget is spent: ``max_restarts``
  *failed* restore attempts retire the shard and re-hash its members
  onto survivors via the ring's churn path (``coordinator.degrade``),
  trading capacity for availability instead of crash-looping.

Determinism note: supervision changes *when* answers arrive, never
*what* they are — restored shards replay their WAL and re-hashed
members are rebuilt from the same prototype database — so the
serial-MSP-identity oracle holds through any kill/hang/restart schedule
(proven end to end by the ``shard`` scenario of ``repro.faults.chaos``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..observability import count as _obs_count, span as _obs_span

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from .shard.coordinator import ShardCoordinator


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision knobs (see ``docs/RELIABILITY.md``).

    ``heartbeat_interval`` is how long a shard may stay silent before it
    is pinged; ``heartbeat_timeout`` how long an unanswered ping may
    hang before the shard is declared unresponsive and killed.
    ``max_restarts`` bounds *failed* restore attempts per shard before
    the supervisor degrades around it; ``restart_backoff`` is the base
    of the exponential pause between those attempts.
    """

    heartbeat_interval: float = 0.25
    heartbeat_timeout: float = 2.0
    max_restarts: int = 2
    restart_backoff: float = 0.05


class ShardSupervisor:
    """The fleet monitor; one instance per coordinator, ticked inline."""

    def __init__(self, config: Optional[SupervisorConfig] = None) -> None:
        self.config = config if config is not None else SupervisorConfig()
        #: every detected death: ``{"shard": i, "reason": ...}`` in order
        self.deaths: List[Dict[str, Any]] = []
        #: detect→ready wall seconds, one sample per successful restart
        self.restart_seconds: List[float] = []
        #: shards retired into degraded mode, in retirement order
        self.degraded: List[int] = []
        self.restarts = 0
        #: asks re-sent to restarted shards (their in-flight work at death)
        self.asks_resent = 0
        self._death_at: Dict[int, float] = {}
        self._failures: Dict[int, int] = {}
        self._next_attempt: Dict[int, float] = {}

    # -------------------------------------------------------------- reporting

    def record_death(self, index: int, reason: str) -> None:
        """Note a dead shard (called by the coordinator or by the tick)."""
        now = time.monotonic()
        if index not in self._death_at:
            self._death_at[index] = now
            self.deaths.append({"shard": index, "reason": reason})
            _obs_count("supervisor.deaths.detected")
        self._next_attempt.setdefault(index, now)

    def report(self) -> Dict[str, Any]:
        """The supervision summary embedded in coordinator reports."""
        samples = sorted(self.restart_seconds)
        return {
            "deaths": list(self.deaths),
            "restarts": self.restarts,
            "asks_resent": self.asks_resent,
            "restart_failures": sum(self._failures.values()),
            "degraded": list(self.degraded),
            "restart_seconds": [round(s, 4) for s in self.restart_seconds],
            "restart_p95_seconds": (
                round(_percentile(samples, 0.95), 4) if samples else None
            ),
        }

    # ------------------------------------------------------------------- tick

    def tick(self, coordinator: "ShardCoordinator") -> None:
        """One supervision pass: detect, heartbeat, restart or degrade."""
        now = time.monotonic()
        self._detect_exits(coordinator)
        self._heartbeat(coordinator, now)
        self._recover(coordinator, now)

    def _detect_exits(self, coordinator: "ShardCoordinator") -> None:
        for handle in coordinator._handles:
            if not handle.alive or handle.process is None:
                continue
            if handle.process.is_alive():
                continue
            code = handle.process.exitcode
            coordinator._mark_dead(handle)
            self.record_death(handle.index, f"process exited (code {code})")

    def _heartbeat(self, coordinator: "ShardCoordinator", now: float) -> None:
        cfg = self.config
        for handle in coordinator._handles:
            if not handle.alive:
                continue
            if handle.ping_sent is not None:
                _seq, sent_at = handle.ping_sent
                if now - sent_at > cfg.heartbeat_timeout:
                    _obs_count("supervisor.heartbeats.missed")
                    coordinator._mark_dead(handle)
                    self.record_death(handle.index, "missed heartbeat")
            elif now - handle.last_seen > cfg.heartbeat_interval:
                if coordinator.ping_shard(handle.index):
                    _obs_count("supervisor.heartbeats.sent")

    def _recover(self, coordinator: "ShardCoordinator", now: float) -> None:
        cfg = self.config
        for handle in coordinator._handles:
            if handle.alive or handle.retired:
                continue
            index = handle.index
            if index not in self._death_at:
                # killed outside our watch (e.g. a chaos hook's
                # kill_shard); adopt the incident so it gets restarted
                self.record_death(index, "found dead")
            if now < self._next_attempt.get(index, now):
                continue
            if self._failures.get(index, 0) >= cfg.max_restarts:
                self._degrade(coordinator, index)
                continue
            try:
                with _obs_span("supervisor.restart"):
                    self.asks_resent += coordinator.restore_shard(index)
            except Exception:
                failures = self._failures.get(index, 0) + 1
                self._failures[index] = failures
                _obs_count("supervisor.restart.failures")
                coordinator._mark_dead(handle)
                self._next_attempt[index] = now + cfg.restart_backoff * (
                    2.0 ** (failures - 1)
                )
                continue
            self.restarts += 1
            _obs_count("supervisor.restarts")
            died_at = self._death_at.pop(index, now)
            self._next_attempt.pop(index, None)
            self.restart_seconds.append(time.monotonic() - died_at)

    def _degrade(self, coordinator: "ShardCoordinator", index: int) -> None:
        moved = coordinator.degrade(index)
        self.degraded.append(index)
        self._death_at.pop(index, None)
        self._next_attempt.pop(index, None)
        _obs_count("supervisor.degraded")
        _obs_count("supervisor.members.rehashed", moved)


def _percentile(sorted_samples: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample list."""
    if not sorted_samples:
        raise ValueError("no samples")
    rank = max(0, min(len(sorted_samples) - 1, int(q * len(sorted_samples))))
    return sorted_samples[rank]


__all__ = ["ShardSupervisor", "SupervisorConfig"]
