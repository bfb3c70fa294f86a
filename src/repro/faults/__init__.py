"""Deterministic fault injection and graceful degradation.

Crowd platforms must treat partial failure as the normal case: members
stall, depart mid-session, deliver the same answer twice, or return
garbage.  This package makes those failures a *first-class, testable
input* to the serving layer instead of something that only happens in
production:

* :class:`FaultPlan` — a seedable, fully deterministic schedule of
  faults (member timeouts, departures, duplicate deliveries, malformed
  answers) injected at named sites wired through :mod:`repro.service`;
* :class:`CircuitBreaker` — the per-member error-rate breaker the
  :class:`~repro.service.manager.SessionManager` uses to quarantine
  misbehaving members (closed → open → half-open probing) instead of
  burning retry attempts on them;
* :func:`run_chaos_campaign` — seeded chaos campaigns mixing every fault
  kind, replayed identically per seed, that verify the engine's
  durability invariants (no acknowledged answer lost, no answer
  applied twice, the planted bad member quarantined, MSPs identical to a
  serial run);
* :func:`run_total_chaos_campaign` — the whole-stack escalation: kill
  *any* component (gateway process, shard worker, the coordinator
  itself, client connections) at seeded points and prove the same
  serial-MSP-identity plus zero-reask / zero-double-charge gates, with
  per-component MTTR in the report (``benchmarks/bench_chaos.py``).

Every injection and breaker transition emits a ``faults.*`` /
``recovery.*`` counter registered in :mod:`repro.observability.names`.
The failure model, recovery protocol and breaker state machine are
documented in ``docs/RELIABILITY.md``; the CLI entry point is
``repro chaos``.
"""

from .breaker import BreakerState, CircuitBreaker
from .chaos import ChaosReport, run_chaos_campaign, run_chaos_once
from .plan import (
    DuplicateDelivery,
    FaultKind,
    FaultPlan,
    FaultSpec,
    MALFORMED_SUPPORT,
    SITES,
    chaos_plan,
)
from .total_chaos import (
    COMPONENTS,
    run_total_chaos_campaign,
    run_total_chaos_once,
)

__all__ = [
    "BreakerState",
    "COMPONENTS",
    "ChaosReport",
    "CircuitBreaker",
    "DuplicateDelivery",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "MALFORMED_SUPPORT",
    "SITES",
    "chaos_plan",
    "run_chaos_campaign",
    "run_chaos_once",
    "run_total_chaos_campaign",
    "run_total_chaos_once",
]
