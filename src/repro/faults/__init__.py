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
* :func:`run_chaos_campaign` — the one chaos harness: per seed it breaks
  every serving layer in turn (:data:`SCENARIOS`: the in-process
  session loop under every fault kind, a gateway crash, dropped and
  duplicated client requests, a SIGKILLed shard, a crashed coordinator)
  and checks the durability invariants (no acknowledged answer lost or
  re-asked, no answer applied twice, the planted bad member
  quarantined, MSPs identical to a serial run), with per-component
  MTTR and the supervisor's shard-restart p95 budget in the report.

Every injection and breaker transition emits a ``faults.*`` /
``recovery.*`` counter registered in :mod:`repro.observability.names`.
The failure model, recovery protocol and breaker state machine are
documented in ``docs/RELIABILITY.md``; the CLI entry point is
``repro chaos``.
"""

from .breaker import BreakerState, CircuitBreaker
from .chaos import (
    SCENARIOS,
    ChaosReport,
    run_chaos_campaign,
    run_chaos_once,
    run_scenario,
)
from .plan import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    MALFORMED_SUPPORT,
    SITES,
    chaos_plan,
)

__all__ = [
    "BreakerState",
    "ChaosReport",
    "CircuitBreaker",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "MALFORMED_SUPPORT",
    "SCENARIOS",
    "SITES",
    "chaos_plan",
    "run_chaos_campaign",
    "run_chaos_once",
    "run_scenario",
]
